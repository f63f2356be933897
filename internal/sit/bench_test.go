package sit

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/query"
)

// benchCatalog builds R(x) and a wide S(y, a1..a4) with enough rows for the
// chunked engine to fan out (~49 chunks at 200k rows).
func benchCatalog(b *testing.B, rows int) *data.Catalog {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	r := data.MustNewTable("R", "x")
	for i := 0; i < 2000; i++ {
		if err := r.AppendRow(rng.Int63n(1000)); err != nil {
			b.Fatal(err)
		}
	}
	s := data.MustNewTable("S", "y", "a1", "a2", "a3", "a4")
	for i := 0; i < rows; i++ {
		if err := s.AppendRow(rng.Int63n(1000), rng.Int63n(5000), rng.Int63n(5000),
			rng.Int63n(5000), rng.Int63n(5000)); err != nil {
			b.Fatal(err)
		}
	}
	cat := data.NewCatalog()
	cat.MustAdd(r)
	cat.MustAdd(s)
	return cat
}

// BenchmarkSharedScan measures the shared-scan engine itself: jobs are
// prepared outside the timer (oracles and base histograms come from the
// builder's caches after the first iteration), and each iteration performs
// one chunked scan of S feeding every job's consumer.
func BenchmarkSharedScan(b *testing.B) {
	const rows = 200000
	cat := benchCatalog(b, rows)
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	allSpecs := make([]query.SITSpec, 4)
	for i := range allSpecs {
		spec, err := query.NewSITSpec("S", fmt.Sprintf("a%d", i+1), e)
		if err != nil {
			b.Fatal(err)
		}
		allSpecs[i] = spec
	}
	for _, nJobs := range []int{1, 4} {
		for _, p := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("jobs=%d/parallel=%d", nJobs, p), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.Parallelism = p
				builder, err := NewBuilder(cat, cfg)
				if err != nil {
					b.Fatal(err)
				}
				tab := cat.MustTable("S")
				specs := allSpecs[:nJobs]
				// Warm the builder's base-histogram and index caches so the
				// timed loop measures scans, not oracle construction.
				if _, err := builder.prepareJob(specs[0], Sweep, cfg.Buckets); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					jobs := make([]*scanJob, len(specs))
					for ji, spec := range specs {
						job, err := builder.prepareJob(spec, Sweep, cfg.Buckets)
						if err != nil {
							b.Fatal(err)
						}
						jobs[ji] = job
					}
					if _, err := runSharedScan(tab, jobs, p, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(rows * 8 * (1 + len(specs))))
			})
		}
	}
}

// BenchmarkSweepFull is the end-to-end SIT-creation path: Builder.Build with
// the exact full-scan technique, including the vectorized materialization of
// the generating query's value vector. The SIT cache is invalidated between
// iterations so every iteration rebuilds; base histograms and indexes stay
// cached as in steady-state use.
func BenchmarkSweepFull(b *testing.B) {
	const rows = 200000
	cat := benchCatalog(b, rows)
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	spec, err := query.NewSITSpec("S", "a1", e)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("parallel=%d", p), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Parallelism = p
			builder, err := NewBuilder(cat, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := builder.Build(spec, SweepFull); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(builder.sits)
				if _, err := builder.Build(spec, SweepFull); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSharedScanExact exercises the per-chunk fork/merge path of the
// exact consumers (SweepFull), whose aggregation is the heaviest per-row work.
func BenchmarkSharedScanExact(b *testing.B) {
	const rows = 200000
	cat := benchCatalog(b, rows)
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	spec, err := query.NewSITSpec("S", "a1", e)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallel=%d", p), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Parallelism = p
			builder, err := NewBuilder(cat, cfg)
			if err != nil {
				b.Fatal(err)
			}
			tab := cat.MustTable("S")
			if _, err := builder.prepareJob(spec, SweepFull, cfg.Buckets); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job, err := builder.prepareJob(spec, SweepFull, cfg.Buckets)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := runSharedScan(tab, []*scanJob{job}, p, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(rows * 16))
		})
	}
}
