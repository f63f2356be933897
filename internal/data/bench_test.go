package data

import (
	"math/rand"
	"testing"
)

func benchTable(b *testing.B, rows int) *Table {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	t := MustNewTable("B", "x", "y", "a")
	for i := 0; i < rows; i++ {
		t.AppendRow(rng.Int63n(1000), rng.Int63n(1000), rng.Int63n(1000))
	}
	return t
}

// BenchmarkOpenChunks measures the sequential-scan throughput Sweep depends
// on, through the chunked scan API the parallel engine uses: columns are read
// directly from chunk sub-slices.
func BenchmarkOpenChunks(b *testing.B) {
	t := benchTable(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := t.OpenChunks(4096, "x", "a")
		if err != nil {
			b.Fatal(err)
		}
		var sum int64
		for {
			ch, ok, err := rd.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			for _, x := range ch.Cols[0] {
				sum += x
			}
		}
		_ = sum
	}
	b.SetBytes(int64(t.NumRows() * 16))
}

func BenchmarkAppendRow(b *testing.B) {
	t := MustNewTable("B", "x", "y")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.AppendRow(int64(i), int64(i))
	}
}
