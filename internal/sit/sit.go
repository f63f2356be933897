// Package sit is the core of the reproduction: it implements SITs
// (statistics on query expressions, Definition 1 of the paper) and the
// family of creation techniques of Section 3 —
//
//   - Sweep: one sequential scan per non-root join-tree table, histogram
//     m-Oracle (containment assumption), reservoir sampling.
//   - SweepIndex: exact index-based multiplicities where the joined side is a
//     base table (drops the containment assumption at the leaves).
//   - SweepFull: no sampling; the streamed multiset is aggregated exactly
//     (drops the sampling assumption).
//   - SweepExact: index multiplicities + no sampling + exact intermediate
//     distributions; provably equal to materializing the generating query
//     and building the histogram over the result.
//   - HistSIT: the traditional optimizer baseline that propagates base-table
//     histograms through the join plan under the independence and
//     containment assumptions (Section 2.1), touching no data.
//   - Materialize: executes the generating query with the executor and
//     builds the histogram over the materialized result (ground truth).
//
// Chain and general acyclic-join generating queries are handled by the
// join-tree unfolding of Section 3.2: intermediate SITs are built bottom-up
// in post-order and feed the m-Oracles of their parents.
package sit

import (
	"fmt"
	"math"

	"github.com/sitstats/sits/internal/btree"
	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/histogram"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/query"
)

// Method selects a SIT creation technique.
type Method int

const (
	// HistSIT propagates base-table histograms (the optimizer baseline).
	HistSIT Method = iota
	// Sweep is the paper's main technique (Section 3.1).
	Sweep
	// SweepIndex replaces the histogram m-Oracle with exact index lookups.
	SweepIndex
	// SweepFull omits reservoir sampling.
	SweepFull
	// SweepExact combines SweepIndex and SweepFull with exact intermediates.
	SweepExact
	// Materialize executes the generating query and builds the histogram
	// over the actual result.
	Materialize
)

// String returns the technique name as used in the paper's figures.
func (m Method) String() string {
	switch m {
	case HistSIT:
		return "Hist-SIT"
	case Sweep:
		return "Sweep"
	case SweepIndex:
		return "SweepIndex"
	case SweepFull:
		return "SweepFull"
	case SweepExact:
		return "SweepExact"
	case Materialize:
		return "Materialize"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Methods lists all creation techniques in the order the paper compares them.
func Methods() []Method {
	return []Method{HistSIT, Sweep, SweepIndex, SweepFull, SweepExact}
}

// SIT is a statistic over a query expression: the histogram approximates the
// distribution of Spec.Table.Spec.Attr in the result of Spec.Expr.
type SIT struct {
	Spec query.SITSpec
	Hist *histogram.Histogram
	// Method records how the SIT was created.
	Method Method
	// EstimatedCard is the creation-time estimate of |Spec.Expr|; for exact
	// methods it equals the true cardinality.
	EstimatedCard float64
	// builtAgainst snapshots the base-table sizes at creation time for
	// staleness tracking; nil for SITs loaded without snapshots.
	builtAgainst snapshot
}

// EstimateRange estimates |sigma_{lo <= attr <= hi}(Q)| from the SIT.
func (s *SIT) EstimateRange(lo, hi int64) float64 { return s.Hist.EstimateRange(lo, hi) }

// Config parameterizes a Builder.
type Config struct {
	// Buckets is the histogram bucket budget (the paper's default nb = 100).
	Buckets int
	// HistMethod is the histogram construction algorithm (default
	// MaxDiffArea, the paper's MaxDiff variant).
	HistMethod histogram.Method
	// SampleRate is the reservoir size as a fraction of the scanned table
	// (the paper's default is 10%).
	SampleRate float64
	// MinSample floors the reservoir size so tiny tables still sample.
	MinSample int
	// Seed drives sampling.
	Seed int64
	// Parallelism is the width of every shared sequential scan's
	// exec.ForkJoin (resolved by exec.ResolveParallelism): each scan's
	// windows run on the building goroutine plus at most width-1 helper
	// goroutines started for that scan. Generating-query plans (Materialize)
	// run on the building goroutine whatever the width.
	// 0 uses GOMAXPROCS, 1 runs fully serially (bit-identical to the original
	// single-threaded implementation), n > 1 uses at most n workers. Exact
	// methods (SweepFull, SweepExact) produce bit-identical SITs at every
	// parallelism level; sampled methods (Sweep, SweepIndex) are deterministic
	// for a fixed parallelism level.
	Parallelism int
	// MemBudget caps the executor's operator memory in bytes (0 = unlimited,
	// the previous behavior). Under a budget, hash-join build sides spill into
	// grace partitioning; SITs are bit-identical at any budget. Spill files
	// live in a temp directory owned by the builder and are removed by Close.
	MemBudget int64
	// Governor injects a shared memory governor instead of the private one a
	// positive MemBudget creates: every Builder (and service request) handed
	// the same Governor reserves against one process-wide byte budget, the
	// steady-state regime a statistics server runs in. A shared governor is
	// not owned by the builder — Close leaves it (and its spill store) alone —
	// and it overrides MemBudget, which configures only a builder-private
	// governor.
	Governor *mem.Governor
}

// DefaultConfig returns the paper's experimental defaults.
func DefaultConfig() Config {
	return Config{
		Buckets:    100,
		HistMethod: histogram.MaxDiffArea,
		SampleRate: 0.10,
		MinSample:  100,
		Seed:       1,
	}
}

func (c Config) validate() error {
	if c.Buckets <= 0 {
		return fmt.Errorf("sit: config needs positive bucket count, got %d", c.Buckets)
	}
	if c.SampleRate <= 0 || c.SampleRate > 1 {
		return fmt.Errorf("sit: sample rate %v out of (0,1]", c.SampleRate)
	}
	if c.MinSample < 1 {
		return fmt.Errorf("sit: minimum sample size %d must be >= 1", c.MinSample)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("sit: parallelism %d must be >= 0 (0 = GOMAXPROCS)", c.Parallelism)
	}
	if c.MemBudget < 0 {
		return fmt.Errorf("sit: memory budget %d must be >= 0 (0 = unlimited)", c.MemBudget)
	}
	return nil
}

// genCached is a per-table statistic together with the data generation
// (data.Table.Generation) of the table it was computed from. A lookup whose
// table has moved on is a miss and overwrites the entry, so an append
// invalidates base statistics without anyone sweeping the caches.
type genCached[T any] struct {
	gen uint64
	v   T
}

// Builder creates SITs over a catalog. It caches base-table histograms,
// B+tree indexes, and intermediate SITs (per method), so repeated builds and
// shared sub-expressions are computed once.
type Builder struct {
	cat  *data.Catalog
	cfg  Config
	base map[string]genCached[*histogram.Histogram] // "T.a#nb" -> base histogram
	idx  map[string]genCached[*btree.Tree]          // "T.a" -> index
	sits map[string]*SIT                            // method + canonical spec -> SIT
	seed int64                                      // per-reservoir seed sequence
	gov  *mem.Governor                              // shared (cfg.Governor) or private (cfg.MemBudget > 0)
	// ownsGov marks a builder-private governor: Close tears it down. A
	// governor injected through cfg.Governor is shared across builders and
	// outlives each of them.
	ownsGov bool
}

// NewBuilder creates a Builder over the catalog.
func NewBuilder(cat *data.Catalog, cfg Config) (*Builder, error) {
	if cat == nil {
		return nil, fmt.Errorf("sit: NewBuilder needs a catalog")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b := &Builder{
		cat:  cat,
		cfg:  cfg,
		base: map[string]genCached[*histogram.Histogram]{},
		idx:  map[string]genCached[*btree.Tree]{},
		sits: map[string]*SIT{},
		seed: cfg.Seed,
	}
	switch {
	case cfg.Governor != nil:
		b.gov = cfg.Governor
	case cfg.MemBudget > 0:
		b.gov = mem.NewGovernor(cfg.MemBudget)
		b.ownsGov = true
	}
	return b, nil
}

// Governor returns the builder's memory governor — the shared one injected
// through Config.Governor, the private one created for Config.MemBudget, or
// nil when the builder is un-budgeted.
func (b *Builder) Governor() *mem.Governor { return b.gov }

// Close releases the builder's spill resources (the governor's run-store temp
// directory) when the builder owns its governor; a governor shared through
// Config.Governor is left running for its other builders. It is safe on an
// un-budgeted builder and safe to call twice; the builder must not execute
// further plans afterwards.
func (b *Builder) Close() error {
	if !b.ownsGov {
		return nil
	}
	return b.gov.Close()
}

// Catalog returns the data catalog the builder operates on.
func (b *Builder) Catalog() *data.Catalog { return b.cat }

// nextSeed returns a fresh deterministic seed for a reservoir.
func (b *Builder) nextSeed() int64 {
	b.seed++
	return b.seed
}

// BaseHistogram returns (building and caching on first use) the base-table
// histogram over table.attr with the configured bucket budget.
func (b *Builder) BaseHistogram(table, attr string) (*histogram.Histogram, error) {
	return b.baseHistogramN(table, attr, b.cfg.Buckets)
}

// baseHistogramN builds a base histogram with an explicit bucket budget;
// SweepExact uses an effectively unbounded budget for exactness.
func (b *Builder) baseHistogramN(table, attr string, nb int) (*histogram.Histogram, error) {
	t, err := b.cat.Table(table)
	if err != nil {
		return nil, err
	}
	key, gen := fmt.Sprintf("%s.%s#%d", table, attr, nb), t.Generation()
	if e, ok := b.base[key]; ok && e.gen == gen {
		return e.v, nil
	}
	vals, err := t.Column(attr)
	if err != nil {
		return nil, err
	}
	h, err := histogram.FromValues(vals, nb, b.cfg.HistMethod)
	if err != nil {
		return nil, err
	}
	b.base[key] = genCached[*histogram.Histogram]{gen, h}
	return h, nil
}

// Index returns (building and caching on first use) a B+tree over table.attr
// for exact multiplicity lookups.
func (b *Builder) Index(table, attr string) (*btree.Tree, error) {
	tab, err := b.cat.Table(table)
	if err != nil {
		return nil, err
	}
	key, gen := table+"."+attr, tab.Generation()
	if e, ok := b.idx[key]; ok && e.gen == gen {
		return e.v, nil
	}
	vals, err := tab.Column(attr)
	if err != nil {
		return nil, err
	}
	tree := btree.Build(vals)
	b.idx[key] = genCached[*btree.Tree]{gen, tree}
	return tree, nil
}

// Cached returns the cached SIT for a spec and method, if present.
func (b *Builder) Cached(spec query.SITSpec, m Method) (*SIT, bool) {
	s, ok := b.sits[cacheKey(spec, m)]
	return s, ok
}

func cacheKey(spec query.SITSpec, m Method) string {
	return m.String() + "|" + spec.Canonical()
}

// SampleSize returns the reservoir capacity used when scanning the table:
// max(MinSample, SampleRate * |table|). This is the SampleSize(T) quantity of
// the scheduling cost model (Section 4.3).
func (b *Builder) SampleSize(table string) (int, error) {
	t, err := b.cat.Table(table)
	if err != nil {
		return 0, err
	}
	k := int(b.cfg.SampleRate * float64(t.NumRows()))
	if k < b.cfg.MinSample {
		k = b.cfg.MinSample
	}
	return k, nil
}

// exactBuckets is the "unbounded" bucket budget used by exact paths.
const exactBuckets = math.MaxInt32
