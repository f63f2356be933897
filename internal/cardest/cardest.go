// Package cardest is the optimizer-integration layer reviewed in Section
// 2.2: a cardinality-estimation module for SPJ queries that transparently
// exploits applicable SITs and falls back to traditional base-histogram
// propagation when none match. It plays the role of the "wrapper on top of
// the original cardinality estimation module" of the paper's reference [2]:
// given an SPJ query (an acyclic join expression plus range predicates), it
// rewrites the estimation to use the most specific registered SIT per
// predicate — the materialized-view-style matching is done on canonical
// expression forms.
package cardest

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/query"
	"github.com/sitstats/sits/internal/sit"
)

// Predicate is one inclusive range predicate lo <= Table.Attr <= hi.
type Predicate struct {
	Table, Attr string
	Lo, Hi      int64
}

func (p Predicate) column() PredColumn { return PredColumn{Table: p.Table, Attr: p.Attr} }

// String renders the predicate.
func (p Predicate) String() string {
	return fmt.Sprintf("%d <= %s.%s <= %d", p.Lo, p.Table, p.Attr, p.Hi)
}

// SPJQuery is a select-project-join query: an acyclic join generating
// expression and a conjunction of range predicates over its tables.
type SPJQuery struct {
	Expr  *query.Expr
	Preds []Predicate
}

// PredSource records which statistic answered one predicate's selectivity.
type PredSource struct {
	Pred Predicate
	// Stat names the statistic used: "SIT(...)" or "base histogram T.a".
	Stat string
	// Tables is the number of tables covered by the statistic's expression
	// (1 for base histograms); more tables means fewer propagation steps.
	Tables int
	// Selectivity is the predicate's estimated selectivity.
	Selectivity float64
}

// Estimate is a cardinality estimate together with its provenance.
type Estimate struct {
	// Cardinality is the estimated result size of the SPJ query.
	Cardinality float64
	// JoinCard is the estimated cardinality of the join before predicates.
	JoinCard float64
	// JoinStat names the statistic that provided JoinCard.
	JoinStat string
	// Sources records the statistic used per predicate.
	Sources []PredSource
}

// Estimator estimates SPJ query cardinalities using registered SITs.
//
// Once its SIT set is registered, an Estimator is safe for concurrent
// Prepare/Estimate calls: SIT matching reads an index compiled at
// registration, and the base-statistic fallbacks (join cardinality by
// histogram propagation, per-column base histograms) are memoized per table
// generation, so only a memo miss takes the builder — through the lock the
// estimator was created with. Register is not safe concurrently with
// anything else.
type Estimator struct {
	cat   *data.Catalog
	with  func(func(*sit.Builder) error) error // exclusive builder access
	epoch uint64                               // registry epoch compiled from (ForRegistry)

	sits  map[string][]*entry     // canonical expr -> SITs over that expr, registration order
	byCol map[PredColumn][]*entry // per column: candidates in resolution order (see insert)

	// The fallback memos. Entries are stored only under the builder lock,
	// keyed by table generations read inside that same critical section —
	// table mutations hold the lock too — so an entry holds exactly the
	// statistic of the data at its generations; lock-free readers compare
	// generations and never see a torn value. Waiting on the builder lock and
	// re-checking under it single-flights concurrent misses.
	joins  sync.Map // canonical expr -> *joinMemo
	bases  sync.Map // PredColumn -> *baseMemo
	nJoins int      // keys in joins; guarded by the builder lock
}

// maxJoinMemo bounds the join-cardinality memo, which grows with the
// distinct expressions clients send (base memos are bounded by the catalog's
// columns). Past the bound the memo is emptied: a stream of new expressions
// costs builder-lock misses, not memory.
const maxJoinMemo = 4096

// entry is one registered SIT with what matching reads precomputed: its
// canonical expression key and the plan slot it resolves to.
type entry struct {
	s    *sit.SIT
	key  string
	slot planSlot
}

// joinMemo is a memoized base-histogram-propagation join cardinality at the
// generations of the expression's tables (in sorted table order).
type joinMemo struct {
	gens []uint64
	card float64
}

// baseMemo is a memoized base-histogram fallback slot at its table's
// generation.
type baseMemo struct {
	gen  uint64
	slot planSlot
}

// New creates an estimator over the builder's catalog and base statistics.
// Memo misses serialize on a lock private to the estimator; callers that
// share the builder with other goroutines must serialize those uses
// themselves (ForRegistry does, through the registry's builder lock).
func New(b *sit.Builder) (*Estimator, error) {
	if b == nil {
		return nil, fmt.Errorf("cardest: New needs a builder")
	}
	var mu sync.Mutex
	return newEstimator(b.Catalog(), func(f func(*sit.Builder) error) error {
		mu.Lock()
		defer mu.Unlock()
		return f(b)
	}), nil
}

// ForRegistry compiles an estimator over one snapshot of the registry's
// served SIT set, registered in snapshot (key-sorted) order so tie-breaking
// is deterministic. Memo misses build base statistics under
// Registry.WithBuilder. The estimator reflects exactly the snapshot of
// Epoch(); it is not updated by later publishes.
func ForRegistry(reg *sit.Registry) (*Estimator, error) {
	if reg == nil {
		return nil, fmt.Errorf("cardest: ForRegistry needs a registry")
	}
	sits, epoch := reg.Snapshot()
	e := newEstimator(reg.Catalog(), reg.WithBuilder)
	e.epoch = epoch
	for _, s := range sits {
		if err := e.Register(s); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func newEstimator(cat *data.Catalog, with func(func(*sit.Builder) error) error) *Estimator {
	return &Estimator{cat: cat, with: with, sits: map[string][]*entry{}, byCol: map[PredColumn][]*entry{}}
}

// Epoch returns the registry epoch a ForRegistry estimator was compiled
// from (0 for New).
func (e *Estimator) Epoch() uint64 { return e.epoch }

// Register makes a SIT available for matching. Registering a second SIT with
// the same spec replaces the first.
func (e *Estimator) Register(s *sit.SIT) error {
	if s == nil || s.Hist == nil {
		return fmt.Errorf("cardest: cannot register nil SIT")
	}
	key := s.Spec.Expr.Canonical()
	en := &entry{s: s, key: key, slot: planSlot{
		col:    PredColumn{Table: s.Spec.Table, Attr: s.Spec.Attr},
		stat:   s.Spec.String(),
		tables: s.Spec.Expr.NumTables(),
		hist:   s.Hist,
		total:  s.Hist.TotalFreq(),
	}}
	list := e.sits[key]
	for i, old := range list {
		if old.s.Spec.Canonical() == s.Spec.Canonical() {
			list[i] = en
			e.remove(old)
			e.insert(en)
			return nil
		}
	}
	e.sits[key] = append(list, en)
	e.insert(en)
	return nil
}

// insert adds the entry to its column's candidate list, which is ordered so
// that the first candidate applicable to a query is its most specific SIT:
// most tables first, ties broken by canonical key and then registration
// order (an entry goes after every equal one).
func (e *Estimator) insert(en *entry) {
	list := e.byCol[en.slot.col]
	i := sort.Search(len(list), func(i int) bool {
		c := list[i]
		if c.slot.tables != en.slot.tables {
			return c.slot.tables < en.slot.tables
		}
		return c.key > en.key
	})
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = en
	e.byCol[en.slot.col] = list
}

// remove drops a replaced entry from its column's candidate list.
func (e *Estimator) remove(en *entry) {
	list := e.byCol[en.slot.col]
	for i, c := range list {
		if c == en {
			e.byCol[en.slot.col] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// Registered returns the number of registered SITs.
func (e *Estimator) Registered() int {
	n := 0
	for _, l := range e.sits {
		n += len(l)
	}
	return n
}

// Estimate estimates the cardinality of the SPJ query as
//
//	card(join) * product over predicates of selectivity(p)
//
// where card(join) comes from a SIT over the full expression when one is
// registered (any attribute) and base-histogram propagation otherwise, and
// each predicate's selectivity comes from the most specific applicable SIT —
// the registered SIT over the predicate's attribute whose expression is the
// largest sub-expression of the query — falling back to the attribute's
// base-table histogram (the traditional estimation of Section 2.1).
//
// Estimate is the one-shot composition of the two-phase API: it prepares a
// plan for the query's shape and executes it with the query's constants, so
// its answers are bit-identical to a cached plan probed with the same
// constants.
func (e *Estimator) Estimate(q SPJQuery) (Estimate, error) {
	if err := Validate(e.cat, q); err != nil {
		return Estimate{}, err
	}
	plan, err := e.Prepare(q.Expr, Columns(q.Preds))
	if err != nil {
		return Estimate{}, err
	}
	return plan.Execute(q.Preds)
}

// ErrRepeatedColumn is wrapped by the error Validate, Prepare and TryPrepare
// return for two predicates on one column. Estimation multiplies predicate
// selectivities as if they were independent, which two ranges on one column
// are not (two disjoint ranges would still estimate a positive count), so
// the caller must intersect them into one range.
var ErrRepeatedColumn = errors.New("cardest: two predicates on one column")

// repeatOf returns the index of the first of xs[:i] on the same column as
// xs[i], or -1: the one rule behind ErrRepeatedColumn.
func repeatOf[T interface{ column() PredColumn }](xs []T, i int) int {
	for k, o := range xs[:i] {
		if o.column() == xs[i].column() {
			return k
		}
	}
	return -1
}

// Validate checks a query before any estimation work: it needs an acyclic
// join expression over catalog tables whose join columns exist, and every
// predicate must range over a column of the catalog table it names, that
// table must be in the expression, the range must not be empty, and no other
// predicate may range over the same column (ErrRepeatedColumn). Serving
// layers call it before their first tier, so a request that cannot be
// answered never waits for the builder. It allocates only to report an
// error.
func Validate(cat *data.Catalog, q SPJQuery) error {
	if q.Expr == nil {
		return fmt.Errorf("cardest: query needs a join expression")
	}
	for i := 0; i < q.Expr.NumTables(); i++ {
		if _, err := cat.Table(q.Expr.Table(i)); err != nil {
			return err
		}
	}
	for i := 0; i < q.Expr.NumJoins(); i++ {
		j := q.Expr.Join(i)
		if !cat.MustTable(j.LeftTable).HasColumn(j.LeftAttr) || !cat.MustTable(j.RightTable).HasColumn(j.RightAttr) {
			return fmt.Errorf("cardest: join predicate %q references an unknown column", j.String())
		}
	}
	if !q.Expr.IsAcyclic() {
		return fmt.Errorf("cardest: join expression %q is cyclic", q.Expr.String())
	}
	for i, p := range q.Preds {
		if !q.Expr.HasTable(p.Table) {
			return fmt.Errorf("cardest: predicate %q references table outside the query", p.String())
		}
		if p.Hi < p.Lo {
			return fmt.Errorf("cardest: predicate %q has an empty range", p.String())
		}
		if !cat.MustTable(p.Table).HasColumn(p.Attr) {
			return fmt.Errorf("cardest: predicate %q references an unknown column", p.String())
		}
		if k := repeatOf(q.Preds, i); k >= 0 {
			return fmt.Errorf("%w: %q and %q both range over %s.%s; intersect them into one range",
				ErrRepeatedColumn, q.Preds[k].String(), p.String(), p.Table, p.Attr)
		}
	}
	return nil
}

func clampSel(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}
