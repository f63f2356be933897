package cardest

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/sitstats/sits/internal/histogram"
	"github.com/sitstats/sits/internal/query"
	"github.com/sitstats/sits/internal/sit"
)

// This file is the prepare half of the estimator's prepare/execute split.
// Preparation does everything that depends only on the query *shape* — the
// join expression and the predicate columns, not the predicate constants:
// canonicalization, candidate-SIT enumeration and ranking, and resolution of
// the exact histograms the estimate will probe. The result is an immutable
// EstimatorPlan whose Execute probes those histograms with concrete
// constants, allocation-free on the probing path. Serving layers cache plans
// per shape so a constant change re-probes instead of re-matching.

// PredColumn is the shape of one predicate: the column it constrains,
// without the constants.
type PredColumn struct {
	Table, Attr string
}

func (c PredColumn) column() PredColumn { return c }

// Columns extracts the predicate columns (the conjunction's shape) from
// concrete predicates, in order.
func Columns(preds []Predicate) []PredColumn {
	if len(preds) == 0 {
		return nil
	}
	cols := make([]PredColumn, len(preds))
	for i, p := range preds {
		cols[i] = p.column()
	}
	return cols
}

// ShapeKey renders the canonical form of a query shape: the expression's
// canonical string plus the sorted predicate columns, NUL-separated. Two
// queries with the same shape key prepare to interchangeable plans.
func ShapeKey(expr *query.Expr, cols []PredColumn) string {
	sorted := append([]PredColumn(nil), cols...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Table != sorted[j].Table {
			return sorted[i].Table < sorted[j].Table
		}
		return sorted[i].Attr < sorted[j].Attr
	})
	var sb strings.Builder
	sb.WriteString(expr.Canonical())
	for _, c := range sorted {
		sb.WriteByte(0)
		sb.WriteString(c.Table)
		sb.WriteByte('.')
		sb.WriteString(c.Attr)
	}
	return sb.String()
}

// planSlot is one predicate position's resolved statistic: the histogram the
// execute phase probes, with its provenance and precomputed total mass. The
// histogram is immutable, so total is bit-identical to recomputing
// TotalFreq() at probe time.
type planSlot struct {
	col    PredColumn
	stat   string
	tables int
	hist   *histogram.Histogram
	total  float64
}

// EstimatorPlan is the immutable prepared state for one query shape. It pins
// the statistics that were resolved at preparation time (SIT histograms or
// base-table fallbacks); Execute probes them with concrete constants.
// A plan reflects the estimator's registered SIT set at Prepare time —
// callers that mutate the set (Register) or the underlying tables are
// responsible for re-preparing, which serving layers do by keying cached
// plans on the registry's snapshot pin (epoch + table generations).
type EstimatorPlan struct {
	exprCanonical string
	joinCard      float64
	joinStat      string
	slots         []planSlot
}

// joinPropagation is the JoinStat of a join cardinality estimated by
// base-histogram propagation.
const joinPropagation = "base-histogram propagation"

// pending lists the statistics of a plan that no registered SIT provides:
// the join cardinality when no SIT covers the exact expression, and the slot
// positions no SIT matched. They fall back to base statistics, which depend
// on table data and are read from the memos or built under the builder lock.
type pending struct {
	join bool
	base []int
}

// Prepare compiles the estimation of one query shape: it resolves the join
// cardinality (from a SIT over the exact expression, or base-histogram
// propagation) and, for every predicate column, the most specific applicable
// statistic — exactly the matching Estimate performs, hoisted out of the
// per-request path. SIT matching is lock-free; the builder is taken only
// when a base-statistic fallback is not memoized at the tables' current
// generations. The returned plan is immutable and safe for concurrent
// Execute calls.
func (e *Estimator) Prepare(expr *query.Expr, cols []PredColumn) (*EstimatorPlan, error) {
	p, pd, err := e.match(expr, cols)
	if err != nil {
		return nil, err
	}
	ok, err := e.fill(p, expr, pd, nil)
	if err == nil && !ok {
		err = e.with(func(b *sit.Builder) error {
			_, err := e.fill(p, expr, pd, b)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// TryPrepare is Prepare without the builder: ok is false, and no plan is
// returned, when a base statistic the plan needs is not memoized at the
// tables' current generations. Serving layers use it to tell a request that
// must wait for the builder from one that never will.
func (e *Estimator) TryPrepare(expr *query.Expr, cols []PredColumn) (*EstimatorPlan, bool, error) {
	p, pd, err := e.match(expr, cols)
	if err != nil {
		return nil, false, err
	}
	ok, err := e.fill(p, expr, pd, nil)
	if err != nil || !ok {
		return nil, false, err
	}
	return p, true, nil
}

// match resolves everything registered SITs provide — the join cardinality
// from a SIT over the exact expression, each column's most specific
// applicable SIT — and reports the rest as pending.
func (e *Estimator) match(expr *query.Expr, cols []PredColumn) (*EstimatorPlan, pending, error) {
	var pd pending
	if expr == nil {
		return nil, pd, fmt.Errorf("cardest: Prepare needs a join expression")
	}
	for i, c := range cols {
		if !expr.HasTable(c.Table) {
			return nil, pd, fmt.Errorf("cardest: predicate column %s.%s references table outside the query", c.Table, c.Attr)
		}
		if repeatOf(cols, i) >= 0 {
			return nil, pd, fmt.Errorf("%w: %s.%s is named twice; intersect its ranges into one predicate",
				ErrRepeatedColumn, c.Table, c.Attr)
		}
	}
	p := &EstimatorPlan{exprCanonical: expr.Canonical()}
	// Join cardinality: prefer the first SIT registered over the exact
	// expression.
	if exact := e.sits[p.exprCanonical]; len(exact) > 0 {
		p.joinCard = exact[0].s.EstimatedCard
		p.joinStat = exact[0].slot.stat
	} else {
		pd.join = true
	}
	if len(cols) == 0 {
		return p, pd, nil
	}
	p.slots = make([]planSlot, len(cols))
	for i, c := range cols {
		p.slots[i].col = c
		for _, en := range e.byCol[c] {
			if expr.Contains(en.s.Spec.Expr) {
				p.slots[i] = en.slot
				break
			}
		}
		if p.slots[i].hist == nil {
			pd.base = append(pd.base, i)
		}
	}
	return p, pd, nil
}

// fill resolves the plan's pending statistics at the current generations of
// the expression's tables. With b nil it only reads the memos and reports
// false on the first miss. With b non-nil the caller holds the builder lock:
// the generations are read inside that critical section — appends hold the
// same lock, so they describe exactly the data the builder reads — and every
// pending statistic is resolved at them, computing and memoizing misses, so
// the plan never mixes two versions of a table.
func (e *Estimator) fill(p *EstimatorPlan, expr *query.Expr, pd pending, b *sit.Builder) (bool, error) {
	if !pd.join && len(pd.base) == 0 {
		return true, nil
	}
	tables := expr.Tables()
	gens := make([]uint64, len(tables))
	for i, name := range tables {
		t, err := e.cat.Table(name)
		if err != nil {
			return false, err
		}
		gens[i] = t.Generation()
	}
	if pd.join {
		if m, ok := e.joins.Load(p.exprCanonical); ok && slices.Equal(m.(*joinMemo).gens, gens) {
			p.joinCard = m.(*joinMemo).card
		} else if b == nil {
			return false, nil
		} else {
			card, err := b.EstimateJoinCard(expr)
			if err != nil {
				return false, err
			}
			e.memoJoin(p.exprCanonical, &joinMemo{gens: gens, card: card})
			p.joinCard = card
		}
		p.joinStat = joinPropagation
	}
	for _, i := range pd.base {
		c := p.slots[i].col
		gen := gens[sort.SearchStrings(tables, c.Table)]
		if m, ok := e.bases.Load(c); ok && m.(*baseMemo).gen == gen {
			p.slots[i] = m.(*baseMemo).slot
			continue
		}
		if b == nil {
			return false, nil
		}
		h, err := b.BaseHistogram(c.Table, c.Attr)
		if err != nil {
			return false, err
		}
		slot := planSlot{col: c, stat: "base histogram " + c.Table + "." + c.Attr, tables: 1, hist: h, total: h.TotalFreq()}
		e.bases.Store(c, &baseMemo{gen: gen, slot: slot})
		p.slots[i] = slot
	}
	return true, nil
}

// memoJoin stores a join-cardinality memo entry, emptying the memo first when
// a new key would pass maxJoinMemo. Callers hold the builder lock.
func (e *Estimator) memoJoin(key string, m *joinMemo) {
	if _, ok := e.joins.Load(key); !ok {
		if e.nJoins >= maxJoinMemo {
			e.joins.Range(func(k, _ any) bool {
				e.joins.Delete(k)
				return true
			})
			e.nJoins = 0
		}
		e.nJoins++
	}
	e.joins.Store(key, m)
}

// Execute probes the plan's resolved histograms with concrete predicate
// constants and assembles the estimate. The predicates must match the plan's
// columns positionally (the shape the plan was prepared for); selectivities
// multiply in slot order, so an estimate is bit-identical to what a cold
// Prepare+Execute of the same normalized query would produce.
func (p *EstimatorPlan) Execute(preds []Predicate) (Estimate, error) {
	if len(preds) != len(p.slots) {
		return Estimate{}, fmt.Errorf("cardest: plan prepared for %d predicates, got %d", len(p.slots), len(preds))
	}
	for i, pr := range preds {
		if pr.Table != p.slots[i].col.Table || pr.Attr != p.slots[i].col.Attr {
			return Estimate{}, fmt.Errorf("cardest: predicate %d is over %s.%s, plan slot expects %s.%s",
				i, pr.Table, pr.Attr, p.slots[i].col.Table, p.slots[i].col.Attr)
		}
		if pr.Hi < pr.Lo {
			return Estimate{}, fmt.Errorf("cardest: predicate %q has an empty range", pr.String())
		}
	}
	out := Estimate{JoinCard: p.joinCard, JoinStat: p.joinStat, Cardinality: p.joinCard}
	if len(preds) == 0 {
		return out, nil
	}
	out.Sources = make([]PredSource, len(preds))
	p.probe(preds, out.Sources)
	for i := range out.Sources {
		out.Cardinality *= out.Sources[i].Selectivity
	}
	return out, nil
}

// probe fills one PredSource per predicate by probing the slot histograms.
// This is the execute phase's kernel: no matching, no candidate enumeration,
// no allocation — just range probes against already-resolved histograms.
//
//statcheck:hot
func (p *EstimatorPlan) probe(preds []Predicate, out []PredSource) {
	for i := range preds {
		s := &p.slots[i]
		sel := 1.0
		if s.total > 0 {
			sel = s.hist.EstimateRange(preds[i].Lo, preds[i].Hi) / s.total
		}
		out[i] = PredSource{
			Pred:        preds[i],
			Stat:        s.stat,
			Tables:      s.tables,
			Selectivity: clampSel(sel),
		}
	}
}

// NumSlots returns the number of predicate positions the plan was prepared
// for.
func (p *EstimatorPlan) NumSlots() int { return len(p.slots) }
