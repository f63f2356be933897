package exec

import (
	"testing"

	"github.com/sitstats/sits/internal/mem"
)

// Memory-governed execution benchmarks: each operator runs once with an
// unlimited budget (pure in-memory path) and once with a budget of 25% of
// its working set, so three quarters of the state spills through the run
// store. The gap between the two is the price of spilling; the outputs are
// identical by construction (see spill_test.go). The spilling regime reports
// the spilled byte count and the spilled/raw compression ratio.

// spillRegime is one benchmark configuration.
type spillRegime struct {
	name   string
	budget int64
}

// spillRegimes returns the benchmark regimes for a working set: unlimited,
// and a quarter of the working set.
func spillRegimes(workingSet int64) []spillRegime {
	return []spillRegime{
		{"unlimited", 0},
		{"quarter", workingSet / 4},
	}
}

// reportSpill attaches the run store's byte counters to the benchmark.
func reportSpill(b *testing.B, gov *mem.Governor) {
	store, err := gov.Runs()
	if err != nil {
		b.Fatal(err)
	}
	stats := store.Stats()
	if stats.SpilledBytes == 0 {
		b.Fatal("governed run never spilled; the budget regime is not exercised")
	}
	b.ReportMetric(float64(stats.SpilledBytes)/1e6, "spilledMB")
	b.ReportMetric(stats.Ratio(), "compressratio")
}

// BenchmarkGraceJoin measures a 200k x 200k hash join (~2M output rows)
// in-memory vs grace-partitioned with 75% of the build side spilled.
func BenchmarkGraceJoin(b *testing.B) {
	r, s := benchJoinInputs(200_000, 200_000, 20_000)
	ws := int64(r.NumRows()*r.NumCols()) * 8
	for _, reg := range spillRegimes(ws) {
		b.Run(reg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gov := mem.NewGovernor(reg.budget)
				j, err := NewVecHashJoinMem(NewBatchScan(r), NewBatchScan(s), 0, gov,
					JoinCond{LeftCol: "R.x", RightCol: "S.y"})
				if err != nil {
					b.Fatal(err)
				}
				var rows int64
				for {
					batch, ok := j.NextBatch()
					if !ok {
						break
					}
					rows += int64(batch.NumRows())
				}
				if reg.budget > 0 {
					reportSpill(b, gov)
				}
				if err := gov.Close(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rows), "outrows")
			}
		})
	}
}
