// Package experiments contains the harnesses that regenerate every figure of
// the paper's evaluation (Section 5): Figure 7 (single-SIT accuracy across
// creation techniques and generating-query complexity), the uniform-data
// experiment described in Section 5.1's prose, and Figures 8-10 (multi-SIT
// scheduling cost and optimization time under varying numSITs, table counts
// and memory budgets). The harnesses are shared by cmd/sitbench and the
// repository's benchmark suite.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/sitstats/sits/internal/datagen"
	"github.com/sitstats/sits/internal/exec"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/query"
	"github.com/sitstats/sits/internal/sit"
	"github.com/sitstats/sits/internal/workload"
)

// Fig7Config parameterizes the single-SIT accuracy experiment of Section 5.1.
type Fig7Config struct {
	// Chain describes the synthetic database (Section 5.1: 4 tables,
	// 10k-100k tuples, skewed join attributes with z=1 for Figure 7).
	Chain datagen.ChainConfig
	// JoinWays lists the generating-query complexities; the paper uses
	// 2-, 3- and 4-way chain joins (Figures 7(a), 7(b), 7(c)).
	JoinWays []int
	// Buckets lists the histogram sizes swept on the x-axis.
	Buckets []int
	// Queries is the number of random range queries (the paper uses 1,000).
	Queries int
	// SampleRate is Sweep's sampling rate (the paper uses 10%).
	SampleRate float64
	// Methods lists the creation techniques to compare.
	Methods []sit.Method
	// Seed drives query generation and sampling.
	Seed int64
	// Parallelism bounds the harness's fork-joins and the builders' shared
	// scans (0 = GOMAXPROCS, 1 = serial; serial runs reproduce the original
	// single-threaded results exactly). Cells are always assembled in
	// deterministic (way, buckets, method) order regardless of the setting.
	Parallelism int
	// MemBudget caps each builder's and ground-truth plan's operator memory
	// in bytes (0 = unlimited); under a budget hash joins spill, with
	// identical results.
	MemBudget int64
}

// DefaultFig7Config returns the paper's setting, scaled to run in seconds.
func DefaultFig7Config() Fig7Config {
	return Fig7Config{
		Chain:      datagen.DefaultChainConfig(),
		JoinWays:   []int{2, 3, 4},
		Buckets:    []int{20, 50, 100, 200},
		Queries:    1000,
		SampleRate: 0.10,
		Methods:    sit.Methods(),
		Seed:       7,
	}
}

// Fig7Cell is one measured point: a technique at a join width and bucket
// budget.
type Fig7Cell struct {
	Way     int
	Buckets int
	Method  sit.Method
	// Accuracy holds the relative-error aggregates over the random queries.
	Accuracy workload.Result
	// BuildTime is the wall-clock SIT creation time.
	BuildTime time.Duration
	// EstimatedCard / TrueCard compare creation-time cardinality knowledge.
	EstimatedCard float64
	TrueCard      float64
}

// Fig7Result is the full sweep.
type Fig7Result struct {
	Config Fig7Config
	Cells  []Fig7Cell
}

// chainSpec builds the SIT spec for a w-way chain join over the synthetic
// database: SIT(Tw.a | T1 join ... join Tw), with the SIT attribute on the
// last table as in Example 2.
func chainSpec(w int) (query.SITSpec, error) {
	if w < 2 {
		return query.SITSpec{}, fmt.Errorf("experiments: join width %d must be >= 2", w)
	}
	tables := make([]string, w)
	outs := make([]string, w-1)
	ins := make([]string, w-1)
	for i := 0; i < w; i++ {
		tables[i] = datagen.ChainTableName(i + 1)
	}
	for i := 0; i < w-1; i++ {
		outs[i] = "jnext"
		ins[i] = "jprev"
	}
	e, err := query.Chain(tables, outs, ins)
	if err != nil {
		return query.SITSpec{}, err
	}
	return query.NewSITSpec(tables[w-1], "a", e)
}

// fig7WayData is the per-join-width ground truth shared by that width's
// cells: the SIT spec, the materialized result distribution, and the filtered
// random range queries.
type fig7WayData struct {
	spec    query.SITSpec
	truth   *workload.Truth
	queries []workload.RangeQuery
}

// RunFigure7 executes the accuracy sweep. The per-width ground truths and the
// per-(width, buckets) cell groups run as fork-joins of width
// cfg.Parallelism; each group gets a private builder, so no builder cache is
// shared across workers and the results are identical to a serial run of the
// same configuration.
func RunFigure7(cfg Fig7Config) (*Fig7Result, error) {
	if cfg.Queries <= 0 {
		return nil, fmt.Errorf("experiments: query count must be positive")
	}
	for _, w := range cfg.JoinWays {
		if w > cfg.Chain.Tables {
			return nil, fmt.Errorf("experiments: %d-way join exceeds the %d-table database", w, cfg.Chain.Tables)
		}
	}
	cat, err := datagen.ChainDB(cfg.Chain)
	if err != nil {
		return nil, err
	}
	ways := make([]fig7WayData, len(cfg.JoinWays))
	err = parallelFor(len(cfg.JoinWays), cfg.Parallelism, func(wi int) error {
		w := cfg.JoinWays[wi]
		spec, err := chainSpec(w)
		if err != nil {
			return err
		}
		gov := mem.NewGovernor(cfg.MemBudget)
		truthVals, err := exec.AttrValuesOpts(cat, spec.Expr, spec.Table, spec.Attr, exec.Options{Gov: gov})
		if cerr := gov.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		truth := workload.NewTruth(truthVals)
		lo, ok := truth.Min()
		if !ok {
			return fmt.Errorf("experiments: %d-way join result is empty", w)
		}
		hi, _ := truth.Max()
		rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
		// Keep queries whose true result is at least 0.05% of the join
		// result (floored at 10 tuples): zipfian join attributes concentrate
		// the result mass enormously, and ranges falling entirely into the
		// near-empty tail measure nothing but division by almost zero.
		minCount := int64(float64(truth.Len()) * 0.0005)
		if minCount < 10 {
			minCount = 10
		}
		queries, err := workload.FilteredRangeQueries(rng, lo, hi, cfg.Queries, minCount, truth)
		if err != nil {
			return err
		}
		ways[wi] = fig7WayData{spec: spec, truth: truth, queries: queries}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// One task per (way, buckets) pair; the methods inside a pair share one
	// builder (and its caches) and therefore run serially within the task.
	nb := len(cfg.Buckets)
	groups := make([][]Fig7Cell, len(cfg.JoinWays)*nb)
	err = parallelFor(len(groups), cfg.Parallelism, func(gi int) error {
		wd := ways[gi/nb]
		buckets := cfg.Buckets[gi%nb]
		bcfg := sit.DefaultConfig()
		bcfg.Buckets = buckets
		bcfg.SampleRate = cfg.SampleRate
		// The tables are scaled ~10x below the paper's 10k-100k rows (see
		// DESIGN.md); flooring the reservoir keeps the absolute sample
		// sizes in the paper's regime so sampling noise is comparable.
		bcfg.MinSample = 500
		bcfg.Seed = cfg.Seed
		bcfg.Parallelism = cfg.Parallelism
		bcfg.MemBudget = cfg.MemBudget
		builder, err := sit.NewBuilder(cat, bcfg)
		if err != nil {
			return err
		}
		cells := make([]Fig7Cell, 0, len(cfg.Methods))
		for _, m := range cfg.Methods {
			start := time.Now() //statcheck:ignore rawrand wall-clock timing column, not part of the result
			s, err := builder.Build(wd.spec, m)
			if err != nil {
				return fmt.Errorf("experiments: building %s with %v: %w", wd.spec.String(), m, err)
			}
			elapsed := time.Since(start) //statcheck:ignore rawrand wall-clock timing column, not part of the result
			acc, err := workload.Evaluate(s, wd.truth, wd.queries)
			if err != nil {
				return err
			}
			cells = append(cells, Fig7Cell{
				Way:           cfg.JoinWays[gi/nb],
				Buckets:       buckets,
				Method:        m,
				Accuracy:      acc,
				BuildTime:     elapsed,
				EstimatedCard: s.EstimatedCard,
				TrueCard:      float64(wd.truth.Len()),
			})
		}
		if err := builder.Close(); err != nil {
			return err
		}
		groups[gi] = cells
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{Config: cfg}
	for _, cells := range groups {
		res.Cells = append(res.Cells, cells...)
	}
	return res, nil
}

// Cell returns the measured cell for (way, buckets, method), or ok=false.
func (r *Fig7Result) Cell(way, buckets int, m sit.Method) (Fig7Cell, bool) {
	for _, c := range r.Cells {
		if c.Way == way && c.Buckets == buckets && c.Method == m {
			return c, true
		}
	}
	return Fig7Cell{}, false
}

// UniformConfig returns the Figure 7 configuration altered for the prose
// experiment of Section 5.1: uniformly distributed, independent join
// attributes, under which every technique should be accurate (relative errors
// of a few percent, with the sampling-based techniques slightly worse).
// Uniform equi-joins shrink with the domain instead of exploding with skew,
// so this configuration uses larger tables and a tighter join domain than the
// skewed default to keep join results — and reservoir samples — big enough to
// measure sampling noise against.
func UniformConfig() Fig7Config {
	cfg := DefaultFig7Config()
	cfg.Chain.JoinZ = 0
	cfg.Chain.CorrelateSIT = false
	cfg.Chain.Rows = []int{4000, 3000, 2500, 2000}
	cfg.Chain.Domain = 400
	// A dense SIT-attribute domain keeps the true counts of narrow range
	// queries away from zero, so relative errors measure estimation quality
	// rather than the sparsity of the value domain.
	cfg.Chain.PayloadDomain = 500
	cfg.Buckets = []int{100}
	return cfg
}
