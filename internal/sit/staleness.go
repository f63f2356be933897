package sit

import (
	"fmt"
	"sort"

	"github.com/sitstats/sits/internal/query"
)

// Statistics go stale as base data grows. The tables in this repository are
// append-only, so staleness is fully captured by comparing each base table's
// row count against a snapshot taken when the SIT was built — the standard
// row-modification-counter heuristic relational systems use to trigger
// statistics refresh.

// snapshot records the base-table cardinalities a SIT was built against.
type snapshot map[string]int

// Staleness describes how far a SIT has drifted from its base tables.
type Staleness struct {
	// Stale is set when any referenced table changed size beyond the
	// threshold.
	Stale bool
	// Growth maps each referenced table to its relative growth since the
	// SIT was built (0.25 = 25% more rows).
	Growth map[string]float64
}

// snapshotFor captures the current sizes of the spec's tables.
func (b *Builder) snapshotFor(tables []string) (snapshot, error) {
	snap := snapshot{}
	for _, name := range tables {
		t, err := b.cat.Table(name)
		if err != nil {
			return nil, err
		}
		snap[name] = t.NumRows()
	}
	return snap, nil
}

// CheckStaleness compares a SIT's recorded base-table sizes with the current
// catalog. A SIT is considered stale when any of its tables grew by more than
// threshold (e.g. 0.2 for 20%, the classic auto-update trigger). SITs built
// before staleness tracking (or loaded without snapshots) report stale so
// callers err on the side of refreshing.
func (b *Builder) CheckStaleness(s *SIT, threshold float64) (Staleness, error) {
	if s == nil {
		return Staleness{}, fmt.Errorf("sit: cannot check nil SIT")
	}
	if !(threshold >= 0) {
		return Staleness{}, fmt.Errorf("sit: staleness threshold must be non-negative, got %v", threshold)
	}
	out := Staleness{Growth: map[string]float64{}}
	if s.builtAgainst == nil {
		out.Stale = true
		return out, nil
	}
	for _, name := range s.Spec.Expr.Tables() {
		t, err := b.cat.Table(name)
		if err != nil {
			return Staleness{}, err
		}
		was, ok := s.builtAgainst[name]
		if !ok {
			out.Stale = true
			out.Growth[name] = 1
			continue
		}
		growth := 0.0
		if was > 0 {
			growth = float64(t.NumRows()-was) / float64(was)
		} else if t.NumRows() > 0 {
			growth = 1
		}
		if growth < 0 {
			growth = -growth // shrinkage counts as drift too
		}
		out.Growth[name] = growth
		if growth > threshold {
			out.Stale = true
		}
	}
	return out, nil
}

// RefreshStale rebuilds every given SIT whose staleness exceeds the threshold
// with its original creation method, returning the refreshed set (fresh SITs
// are passed through unchanged) and the names of the specs that were rebuilt.
func (b *Builder) RefreshStale(sits []*SIT, threshold float64) ([]*SIT, []string, error) {
	out := make([]*SIT, len(sits))
	var rebuilt []string
	for i, s := range sits {
		st, err := b.CheckStaleness(s, threshold)
		if err != nil {
			return nil, nil, err
		}
		if !st.Stale {
			out[i] = s
			continue
		}
		// Drop every cached SIT (including intermediates) that touches any of
		// the stale SIT's tables, so the rebuild cannot silently reuse stale
		// intermediate results. Base histograms and indexes carry their
		// table's generation and invalidate themselves.
		for key, cached := range b.sits { //statcheck:ignore maprange per-key delete, order-independent
			if sharesTable(cached.Spec, s.Spec) {
				delete(b.sits, key)
			}
		}
		fresh, err := b.Build(s.Spec, s.Method)
		if err != nil {
			return nil, nil, err
		}
		out[i] = fresh
		rebuilt = append(rebuilt, s.Spec.String())
	}
	sort.Strings(rebuilt)
	return out, rebuilt, nil
}

// sharesTable reports whether two specs reference a common base table.
func sharesTable(a, b query.SITSpec) bool {
	for _, t := range a.Expr.Tables() {
		if b.Expr.HasTable(t) {
			return true
		}
	}
	return false
}
