package exec

import (
	"testing"

	"github.com/sitstats/sits/internal/data"
)

// benchSortInput builds an unsorted 2-column table of n rows.
func benchSortInput(n int) *data.Table {
	r, _ := benchJoinInputs(n, 0, 1_000_000)
	return r
}

// BenchmarkSort measures sorting a 500k-row scan with the radix argsort +
// columnar gather.
func BenchmarkSort(b *testing.B) {
	tab := benchSortInput(500_000)
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := NewBatchSort(NewBatchScan(tab), "R.x")
			if err != nil {
				b.Fatal(err)
			}
			var rows, sum int64
			for {
				batch, ok := s.NextBatch()
				if !ok {
					break
				}
				rows += int64(batch.NumRows())
				sum += batch.Cols[0][0]
			}
			b.ReportMetric(float64(rows), "outrows")
			_ = sum
		}
	})
}
