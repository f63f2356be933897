// Package sits is a from-scratch Go implementation of "Efficient Creation of
// Statistics over Query Expressions" (Bruno and Chaudhuri, ICDE 2003): SITs —
// statistics built on the results of query expressions — together with the
// Sweep family of creation techniques and the SCS-based scheduler that
// creates many SITs with shared sequential scans.
//
// The package is a facade over the implementation packages in internal/; it
// exposes everything a downstream user needs for the full journey:
//
//  1. Load or generate data (Catalog, Table, GenerateChainDB, ReadCSVFile).
//  2. Describe a statistic over a query expression (ParseSIT, NewSITSpec).
//  3. Create it with a chosen accuracy/efficiency trade-off
//     (NewBuilder, Build with Sweep / SweepIndex / SweepFull / SweepExact,
//     or the Hist-SIT propagation baseline).
//  4. Use it for cardinality estimation (Estimator).
//  5. Create many SITs at once under a memory budget with shared scans
//     (ScheduleTasks, Opt / Greedy / Hybrid / Naive, ExecuteSchedule).
//
// See the examples directory for runnable walkthroughs and DESIGN.md /
// EXPERIMENTS.md for the mapping to the paper's sections and figures.
package sits

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/sitstats/sits/internal/cardest"
	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/datagen"
	"github.com/sitstats/sits/internal/exec"
	"github.com/sitstats/sits/internal/histogram"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/query"
	"github.com/sitstats/sits/internal/sched"
	"github.com/sitstats/sits/internal/sit"
	"github.com/sitstats/sits/internal/workload"
)

// --- Data substrate ---

// Table is an in-memory, append-only, column-oriented relation.
type Table = data.Table

// Catalog maps table names to tables.
type Catalog = data.Catalog

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return data.NewCatalog() }

// NewTable creates an empty table with the given column names.
func NewTable(name string, columns ...string) (*Table, error) {
	return data.NewTable(name, columns...)
}

// ReadCSVFile loads a table from a CSV file with a header row and int64
// fields.
func ReadCSVFile(name, path string) (*Table, error) { return data.ReadCSVFile(name, path) }

// WriteCSVFile writes a table as CSV.
func WriteCSVFile(t *Table, path string) error { return data.WriteCSVFile(t, path) }

// --- Out-of-core segments ---

// Segment is a read-only handle on a block-compressed columnar segment file.
type Segment = data.Segment

// SegmentWriter streams rows into a segment file, one row group at a time.
type SegmentWriter = data.SegmentWriter

// CreateSegment opens a segment writer at path for a table with the given
// name and columns.
func CreateSegment(path, name string, columns []string) (*SegmentWriter, error) {
	return data.CreateSegment(path, name, columns)
}

// WriteSegment writes an in-memory table to a segment file at path.
func WriteSegment(path string, t *Table) error { return data.WriteSegment(path, t) }

// OpenSegment opens a segment file, reading only its footer.
func OpenSegment(path string) (*Segment, error) { return data.OpenSegment(path) }

// OpenSegmentTable opens a segment file as a read-only table whose scans
// stream blocks off disk instead of materializing columns; see
// data.OpenSegmentTable.
func OpenSegmentTable(path string) (*Table, error) { return data.OpenSegmentTable(path) }

// --- Synthetic data ---

// ChainConfig parameterizes the paper's chain-join evaluation database.
type ChainConfig = datagen.ChainConfig

// DefaultChainConfig returns the configuration used to regenerate Figure 7.
func DefaultChainConfig() ChainConfig { return datagen.DefaultChainConfig() }

// GenerateChainDB builds the chain-join synthetic database of Section 5.1.
func GenerateChainDB(cfg ChainConfig) (*Catalog, error) { return datagen.ChainDB(cfg) }

// --- Histograms ---

// Histogram is a single-attribute bucket histogram with frequency and
// distinct-value counts per bucket.
type Histogram = histogram.Histogram

// Bucket is one histogram bucket.
type Bucket = histogram.Bucket

// HistogramMethod selects a histogram construction algorithm.
type HistogramMethod = histogram.Method

// Histogram construction algorithms.
const (
	// MaxDiffArea is the paper's MaxDiff variant (default).
	MaxDiffArea = histogram.MaxDiffArea
	// MaxDiffFreq places boundaries at the largest frequency differences.
	MaxDiffFreq = histogram.MaxDiffFreq
	// EquiDepth builds equal-frequency buckets.
	EquiDepth = histogram.EquiDepth
	// EquiWidth builds equal-range buckets.
	EquiWidth = histogram.EquiWidth
)

// BuildHistogram builds a histogram with at most nb buckets over raw values.
func BuildHistogram(vals []int64, nb int, m HistogramMethod) (*Histogram, error) {
	return histogram.FromValues(vals, nb, m)
}

// --- Query expressions and SIT specifications ---

// Expr is a join generating query expression.
type Expr = query.Expr

// JoinPred is one equality join predicate.
type JoinPred = query.JoinPred

// SITSpec names a statistic over a query expression (Definition 1).
type SITSpec = query.SITSpec

// NewExpr builds an expression from join predicates.
func NewExpr(joins ...JoinPred) (*Expr, error) { return query.NewExpr(joins...) }

// NewBaseExpr builds the trivial expression over a single base table.
func NewBaseExpr(table string) (*Expr, error) { return query.NewBaseExpr(table) }

// ChainExpr builds a chain-join expression.
func ChainExpr(tables, outAttrs, inAttrs []string) (*Expr, error) {
	return query.Chain(tables, outAttrs, inAttrs)
}

// NewSITSpec builds a SIT specification, validating that the attribute's
// table appears in the expression.
func NewSITSpec(table, attr string, expr *Expr) (SITSpec, error) {
	return query.NewSITSpec(table, attr, expr)
}

// ParseSIT parses the textual notation "T.a | R JOIN S ON R.x = S.y ...".
func ParseSIT(s string) (SITSpec, error) { return query.ParseSIT(s) }

// ParseExpr parses a join generating expression.
func ParseExpr(s string) (*Expr, error) { return query.ParseExpr(s) }

// --- SIT creation (the paper's core) ---

// SIT is a statistic over a query expression.
type SIT = sit.SIT

// Builder creates SITs over a catalog, caching base histograms, indexes and
// intermediate SITs.
type Builder = sit.Builder

// Config parameterizes a Builder.
type Config = sit.Config

// Method selects a SIT creation technique.
type Method = sit.Method

// The SIT creation techniques of Section 3.
const (
	// HistSIT is the traditional base-histogram propagation baseline.
	HistSIT = sit.HistSIT
	// Sweep is the paper's main technique: one scan, histogram m-Oracle,
	// reservoir sampling.
	Sweep = sit.Sweep
	// SweepIndex uses exact index lookups for multiplicities.
	SweepIndex = sit.SweepIndex
	// SweepFull skips sampling.
	SweepFull = sit.SweepFull
	// SweepExact combines SweepIndex and SweepFull; equals materialization.
	SweepExact = sit.SweepExact
	// Materialize executes the generating query and builds the histogram
	// over the result (ground truth).
	Materialize = sit.Materialize
)

// Methods lists the creation techniques in the paper's comparison order.
func Methods() []Method { return sit.Methods() }

// ParseMethod is the inverse of Method.String, ignoring case and the hyphen
// in "Hist-SIT".
func ParseMethod(name string) (Method, error) {
	key := strings.ReplaceAll(strings.ToLower(name), "-", "")
	for _, m := range append(Methods(), Materialize) {
		if key == strings.ReplaceAll(strings.ToLower(m.String()), "-", "") {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown method %q", name)
}

// DefaultConfig returns the paper's experimental defaults (100 buckets,
// MaxDiff histograms, 10% sampling).
func DefaultConfig() Config { return sit.DefaultConfig() }

// NewBuilder creates a Builder over the catalog.
func NewBuilder(cat *Catalog, cfg Config) (*Builder, error) { return sit.NewBuilder(cat, cfg) }

// ParseMemBudget parses a human byte-size string for Config.MemBudget: a
// non-negative integer with an optional binary K/M/G/T suffix ("512M",
// "2GiB"); "0" means unlimited.
func ParseMemBudget(s string) (int64, error) { return mem.ParseBytes(s) }

// --- Cardinality estimation (optimizer integration, Section 2.2) ---

// Estimator estimates SPJ query cardinalities, exploiting registered SITs
// with materialized-view-style matching and falling back to base-histogram
// propagation.
type Estimator = cardest.Estimator

// SPJQuery is a select-project-join query: a join expression plus range
// predicates.
type SPJQuery = cardest.SPJQuery

// Predicate is one inclusive range predicate over an attribute.
type Predicate = cardest.Predicate

// ErrRepeatedColumn is wrapped by the error estimation returns for a query
// with two predicates on one column; intersect them into one range instead.
var ErrRepeatedColumn = cardest.ErrRepeatedColumn

// ParsePredicates parses the CLI/query-string predicate form
// "T.a:lo:hi[,T.b:lo:hi...]"; a blank string is no predicates.
func ParsePredicates(s string) ([]Predicate, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []Predicate
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad predicate %q (want T.a:lo:hi)", part)
		}
		ta := strings.Split(fields[0], ".")
		if len(ta) != 2 || ta[0] == "" || ta[1] == "" {
			return nil, fmt.Errorf("bad predicate attribute %q", fields[0])
		}
		lo, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad predicate bound %q: %v", fields[1], err)
		}
		hi, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad predicate bound %q: %v", fields[2], err)
		}
		out = append(out, Predicate{Table: ta[0], Attr: ta[1], Lo: lo, Hi: hi})
	}
	return out, nil
}

// Estimate is a cardinality estimate with provenance.
type Estimate = cardest.Estimate

// NewEstimator creates a cardinality estimator over the builder's catalog.
func NewEstimator(b *Builder) (*Estimator, error) { return cardest.New(b) }

// --- Multi-SIT scheduling (Section 4) ---

// ScheduleTask is one SIT abstracted as its dependency sequence of scans.
type ScheduleTask = sched.Task

// ScheduleEnv is the scheduling cost model: per-table scan costs and sample
// sizes plus the memory budget M.
type ScheduleEnv = sched.Env

// Schedule is an ordered list of shared sequential scans.
type Schedule = sched.Schedule

// ScheduleStats reports solver effort.
type ScheduleStats = sched.Stats

// SITTask binds a schedulable task to a concrete chain SIT.
type SITTask = sched.SITTask

// NewSITTask derives the dependency sequence and per-scan sub-specs of a
// chain SIT.
func NewSITTask(spec SITSpec) (SITTask, error) { return sched.NewSITTask(spec) }

// ScheduleTasks extracts the abstract scheduling tasks from SIT tasks.
func ScheduleTasks(sts []SITTask) []ScheduleTask { return sched.Tasks(sts) }

// OptSchedule finds the optimal schedule with the memory-constrained
// weighted-SCS A* of Section 4.3.1.
func OptSchedule(tasks []ScheduleTask, env ScheduleEnv) (Schedule, ScheduleStats, error) {
	return sched.Opt(tasks, env)
}

// GreedySchedule is the fast greedy variant of Section 4.3.2.
func GreedySchedule(tasks []ScheduleTask, env ScheduleEnv) (Schedule, ScheduleStats, error) {
	return sched.Greedy(tasks, env)
}

// HybridSchedule runs A* within the budget, then continues greedily.
func HybridSchedule(tasks []ScheduleTask, env ScheduleEnv, budget time.Duration) (Schedule, ScheduleStats, error) {
	return sched.Hybrid(tasks, env, budget)
}

// NaiveSchedule creates each SIT separately with no scan sharing.
func NaiveSchedule(tasks []ScheduleTask, env ScheduleEnv) (Schedule, error) {
	return sched.Naive(tasks, env)
}

// ValidateSchedule simulates a schedule and checks it is executable within
// the memory budget.
func ValidateSchedule(s Schedule, tasks []ScheduleTask, env ScheduleEnv) error {
	return sched.Validate(s, tasks, env)
}

// ExecuteSchedule runs a schedule against the builder, performing one shared
// sequential scan per step, and returns the final SITs in task order.
func ExecuteSchedule(s Schedule, sts []SITTask, b *Builder, m Method) ([]*SIT, error) {
	return sched.Execute(s, sts, b, m)
}

// --- Evaluation helpers ---

// RangeQuery is one inclusive range predicate over the SIT's attribute.
type RangeQuery = workload.RangeQuery

// Truth answers exact range counts over a materialized result attribute.
type Truth = workload.Truth

// AccuracyResult aggregates relative-error metrics over a query batch.
type AccuracyResult = workload.Result

// GroundTruth executes the generating expression and indexes the exact
// distribution of table.attr in its result.
func GroundTruth(cat *Catalog, e *Expr, table, attr string) (*Truth, error) {
	vals, err := exec.AttrValues(cat, e, table, attr)
	if err != nil {
		return nil, err
	}
	return workload.NewTruth(vals), nil
}

// TrueCardinality executes the expression and counts result rows.
func TrueCardinality(cat *Catalog, e *Expr) (int64, error) { return exec.Cardinality(cat, e) }

// EvaluateAccuracy measures a SIT (or any range estimator) against the ground
// truth over the given queries.
func EvaluateAccuracy(s *SIT, truth *Truth, queries []RangeQuery) (AccuracyResult, error) {
	return workload.Evaluate(s, truth, queries)
}

// RandomRangeQueries draws n random inclusive ranges within [lo, hi].
func RandomRangeQueries(seed int64, lo, hi int64, n int) ([]RangeQuery, error) {
	return workload.RandomRangeQueries(newRand(seed), lo, hi, n)
}

// ScheduleEnvFor derives the paper's scheduling cost model from a catalog:
// Cost(T) = |T| * costPerRow and SampleSize(T) = sampleRate * |T|, with the
// given memory budget M (<= 0 means unbounded).
func ScheduleEnvFor(cat *Catalog, costPerRow, sampleRate, memory float64) (ScheduleEnv, error) {
	sizes := map[string]int{}
	for _, name := range cat.Names() {
		t, err := cat.Table(name)
		if err != nil {
			return ScheduleEnv{}, err
		}
		sizes[name] = t.NumRows()
	}
	return sched.EnvFromSizes(sizes, costPerRow, sampleRate, memory)
}
