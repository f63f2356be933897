package cardest

import (
	"fmt"
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

// Columns extracts the predicate columns (the conjunction's shape) from
// concrete predicates, in order.
func Columns(preds []Predicate) []PredColumn {
	if len(preds) == 0 {
		return nil
	}
	cols := make([]PredColumn, len(preds))
	for i, p := range preds {
		cols[i] = PredColumn{Table: p.Table, Attr: p.Attr}
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
// plans on the registry's per-table generations.
type EstimatorPlan struct {
	exprCanonical string
	joinCard      float64
	joinStat      string
	slots         []planSlot
}

// Prepare compiles the estimation of one query shape: it resolves the join
// cardinality (from a SIT over the exact expression, or base-histogram
// propagation) and, for every predicate column, the most specific applicable
// statistic — exactly the matching Estimate performs, hoisted out of the
// per-request path. The returned plan is immutable and safe for concurrent
// Execute calls.
func (e *Estimator) Prepare(expr *query.Expr, cols []PredColumn) (*EstimatorPlan, error) {
	if expr == nil {
		return nil, fmt.Errorf("cardest: Prepare needs a join expression")
	}
	for _, c := range cols {
		if !expr.HasTable(c.Table) {
			return nil, fmt.Errorf("cardest: predicate column %s.%s references table outside the query", c.Table, c.Attr)
		}
	}
	p := &EstimatorPlan{exprCanonical: expr.Canonical()}

	// Join cardinality: prefer any SIT over the exact expression.
	if matches := e.sits[p.exprCanonical]; len(matches) > 0 {
		p.joinCard = matches[0].EstimatedCard
		p.joinStat = matches[0].Spec.String()
	} else {
		card, err := e.b.EstimateJoinCard(expr)
		if err != nil {
			return nil, err
		}
		p.joinCard = card
		p.joinStat = "base-histogram propagation"
	}

	if len(cols) == 0 {
		return p, nil
	}
	p.slots = make([]planSlot, len(cols))
	qPreds := predSet(expr)
	// Candidate expressions are scanned in sorted canonical order so that a
	// tie on specificity (two applicable SITs over the same number of tables)
	// always resolves to the same statistic: repeated preparations — and a
	// serving cache comparing plan-hit probes against cold estimation — see
	// bit-identical results regardless of map iteration order.
	keys := make([]string, 0, len(e.sits))
	for k := range e.sits {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, c := range cols {
		slot, err := e.resolveSlot(expr, qPreds, keys, c)
		if err != nil {
			return nil, err
		}
		p.slots[i] = slot
	}
	return p, nil
}

// resolveSlot finds the most specific statistic for one predicate column.
func (e *Estimator) resolveSlot(expr *query.Expr, qPreds map[string]bool, keys []string, c PredColumn) (planSlot, error) {
	var best *sit.SIT
	for _, k := range keys {
		for _, s := range e.sits[k] {
			if s.Spec.Table != c.Table || s.Spec.Attr != c.Attr {
				continue
			}
			if !isSubExpression(s.Spec.Expr, expr, qPreds) {
				continue
			}
			if best == nil || s.Spec.Expr.NumTables() > best.Spec.Expr.NumTables() {
				best = s
			}
		}
	}
	if best != nil {
		return planSlot{
			col:    c,
			stat:   best.Spec.String(),
			tables: best.Spec.Expr.NumTables(),
			hist:   best.Hist,
			total:  best.Hist.TotalFreq(),
		}, nil
	}
	h, err := e.b.BaseHistogram(c.Table, c.Attr)
	if err != nil {
		return planSlot{}, err
	}
	return planSlot{
		col:    c,
		stat:   fmt.Sprintf("base histogram %s.%s", c.Table, c.Attr),
		tables: 1,
		hist:   h,
		total:  h.TotalFreq(),
	}, nil
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
