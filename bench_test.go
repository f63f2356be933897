// Benchmarks regenerating the paper's evaluation (one family per figure) plus
// ablation benches for the design choices called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// Figure benches measure the creation/optimization work the paper's figures
// time; the full accuracy/cost tables are printed by cmd/sitbench.
package sits_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/sitstats/sits"
	"github.com/sitstats/sits/internal/btree"
	"github.com/sitstats/sits/internal/datagen"
	"github.com/sitstats/sits/internal/experiments"
	"github.com/sitstats/sits/internal/histogram"
	"github.com/sitstats/sits/internal/sample"
	"github.com/sitstats/sits/internal/sched"
)

// benchCatalog builds the Figure 7 synthetic database once.
var benchCatalog *sits.Catalog

func catalogForBench(b *testing.B) *sits.Catalog {
	b.Helper()
	if benchCatalog == nil {
		cat, err := sits.GenerateChainDB(sits.DefaultChainConfig())
		if err != nil {
			b.Fatal(err)
		}
		benchCatalog = cat
	}
	return benchCatalog
}

func chainSpecForBench(b *testing.B, way int) sits.SITSpec {
	b.Helper()
	tables := make([]string, way)
	outs := make([]string, way-1)
	ins := make([]string, way-1)
	for i := range tables {
		tables[i] = fmt.Sprintf("T%d", i+1)
	}
	for i := range outs {
		outs[i] = "jnext"
		ins[i] = "jprev"
	}
	e, err := sits.ChainExpr(tables, outs, ins)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := sits.NewSITSpec(tables[way-1], "a", e)
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

// benchFigure7 measures SIT creation cost per technique and join width — the
// work behind Figures 7(a)-(c).
func benchFigure7(b *testing.B, way int) {
	cat := catalogForBench(b)
	spec := chainSpecForBench(b, way)
	for _, m := range sits.Methods() {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sits.DefaultConfig()
				cfg.Seed = int64(i + 1)
				builder, err := sits.NewBuilder(cat, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := builder.Build(spec, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure7a2WayCreate(b *testing.B) { benchFigure7(b, 2) }
func BenchmarkFigure7b3WayCreate(b *testing.B) { benchFigure7(b, 3) }
func BenchmarkFigure7c4WayCreate(b *testing.B) { benchFigure7(b, 4) }

// BenchmarkFigure7Accuracy runs the complete accuracy harness (all widths,
// all techniques, 200 queries) once per iteration.
func BenchmarkFigure7Accuracy(b *testing.B) {
	cfg := experiments.DefaultFig7Config()
	cfg.Buckets = []int{100}
	cfg.Queries = 200
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSched measures scheduler optimization time on the paper's default
// instance distribution — Figure 8(b)'s quantity.
func benchSched(b *testing.B, numSITs int, tech experiments.TechName) {
	cfg := experiments.DefaultSchedConfig()
	cfg.NumSITs = numSITs
	rng := rand.New(rand.NewSource(42))
	type instance struct {
		tasks []sched.Task
		env   sched.Env
	}
	// Pre-draw instances so the generator is outside the timer.
	instances := make([]instance, 16)
	for i := range instances {
		tasks, env, err := experiments.RandomInstance(rng, cfg)
		if err != nil {
			b.Fatal(err)
		}
		instances[i] = instance{tasks, env}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := instances[i%len(instances)]
		var err error
		switch tech {
		case experiments.TechNaive:
			_, err = sched.Naive(inst.tasks, inst.env)
		case experiments.TechOpt:
			_, _, err = sched.Opt(inst.tasks, inst.env)
		case experiments.TechGreedy:
			_, _, err = sched.Greedy(inst.tasks, inst.env)
		case experiments.TechHybrid:
			_, _, err = sched.Hybrid(inst.tasks, inst.env, time.Second)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8OptimizeNaive10SITs(b *testing.B)  { benchSched(b, 10, experiments.TechNaive) }
func BenchmarkFigure8OptimizeOpt10SITs(b *testing.B)    { benchSched(b, 10, experiments.TechOpt) }
func BenchmarkFigure8OptimizeGreedy10SITs(b *testing.B) { benchSched(b, 10, experiments.TechGreedy) }
func BenchmarkFigure8OptimizeHybrid10SITs(b *testing.B) { benchSched(b, 10, experiments.TechHybrid) }
func BenchmarkFigure8OptimizeOpt14SITs(b *testing.B)    { benchSched(b, 14, experiments.TechOpt) }
func BenchmarkFigure8OptimizeGreedy20SITs(b *testing.B) { benchSched(b, 20, experiments.TechGreedy) }

// BenchmarkFigure9 varies the table count (overlap density).
func BenchmarkFigure9Opt20Tables(b *testing.B) {
	cfg := experiments.DefaultSchedConfig()
	cfg.NumTables = 20
	rng := rand.New(rand.NewSource(43))
	tasks, env, err := experiments.RandomInstance(rng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sched.Opt(tasks, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10 varies the memory budget around the feasibility floor.
func BenchmarkFigure10OptTightMemory(b *testing.B) { benchFigure10(b, 1.1) }
func BenchmarkFigure10Optics3xMemory(b *testing.B) { benchFigure10(b, 3) }
func BenchmarkFigure10OptAmpleMemory(b *testing.B) { benchFigure10(b, 10) }

func benchFigure10(b *testing.B, memFactor float64) {
	cfg := experiments.DefaultSchedConfig()
	rng := rand.New(rand.NewSource(44))
	tasks, env, err := experiments.RandomInstance(rng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	env.Memory = experiments.MinFeasibleMemory(env) * memFactor
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sched.Opt(tasks, env); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (design choices, DESIGN.md Section 6) ---

// BenchmarkAblationHistogram compares construction algorithms on skewed data.
func BenchmarkAblationHistogram(b *testing.B) {
	rng := rand.New(rand.NewSource(45))
	vals, err := datagen.ZipfValues(rng, 200000, 5000, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []histogram.Method{histogram.MaxDiffArea, histogram.MaxDiffFreq, histogram.EquiDepth, histogram.EquiWidth} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := histogram.FromValues(vals, 100, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationReservoir drives the stochastic-rounding reservoir with a
// multiplicity-weighted stream.
func BenchmarkAblationReservoir(b *testing.B) {
	const n = 100000
	weights := make([]float64, n)
	rng := rand.New(rand.NewSource(46))
	for i := range weights {
		weights[i] = rng.Float64() * 5
	}
	b.Run("algorithm-r", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := sample.NewReservoir(10000, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < n; j++ {
				r.AddWeighted(int64(j), weights[j])
			}
		}
	})
}

// BenchmarkAblationSuccessors compares the dominance-pruned successor
// generation against the paper's literal all-subsets generateSuccessors.
func BenchmarkAblationSuccessors(b *testing.B) {
	cfg := experiments.DefaultSchedConfig()
	cfg.NumSITs = 7
	rng := rand.New(rand.NewSource(47))
	tasks, env, err := experiments.RandomInstance(rng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("maximal-sets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sched.Opt(tasks, env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("all-subsets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sched.OptWith(tasks, env, sched.Options{AllSubsets: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationHeuristic compares A* against Dijkstra on the scheduler.
func BenchmarkAblationHeuristic(b *testing.B) {
	cfg := experiments.DefaultSchedConfig()
	cfg.NumSITs = 8
	rng := rand.New(rand.NewSource(48))
	tasks, env, err := experiments.RandomInstance(rng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("astar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sched.Opt(tasks, env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dijkstra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sched.OptWith(tasks, env, sched.Options{DisableHeuristic: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationVOptimal compares the V-Optimal dynamic program with the
// cheap constructions on a moderate domain.
func BenchmarkAblationVOptimal(b *testing.B) {
	rng := rand.New(rand.NewSource(49))
	vals, err := datagen.ZipfValues(rng, 50000, 1000, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	pairs := histogram.Tally(vals)
	b.Run("voptimal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := histogram.FromPairsVOptimal(pairs, 50); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("maxdiff-area", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := histogram.FromPairs(pairs, 50, histogram.MaxDiffArea); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBTreeVsSortedSlice measures the SweepIndex multiplicity lookup
// against a binary-searched sorted slice, the design alternative DESIGN.md
// discusses.
func BenchmarkBTreeLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(51))
	vals := make([]int64, 200000)
	for i := range vals {
		vals[i] = rng.Int63n(50000)
	}
	tree := btree.Build(vals)
	probes := make([]int64, 4096)
	for i := range probes {
		probes[i] = rng.Int63n(50000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Count(probes[i%len(probes)])
	}
}
