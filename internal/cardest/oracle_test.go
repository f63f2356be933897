package cardest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/sitstats/sits/internal/datagen"
	"github.com/sitstats/sits/internal/histogram"
	"github.com/sitstats/sits/internal/query"
	"github.com/sitstats/sits/internal/sit"
)

// This file keeps the estimator's original matching — a scan over every
// registered SIT in sorted canonical-key order, recomputing predicate sets
// and base statistics on every call — as the reference the compiled match
// index and the generation-keyed memos are checked against.

// oraclePrepare is the original Prepare over a registration map.
func oraclePrepare(b *sit.Builder, sits map[string][]*sit.SIT, expr *query.Expr, cols []PredColumn) (*EstimatorPlan, error) {
	p := &EstimatorPlan{exprCanonical: expr.Canonical()}
	if matches := sits[p.exprCanonical]; len(matches) > 0 {
		p.joinCard = matches[0].EstimatedCard
		p.joinStat = matches[0].Spec.String()
	} else {
		card, err := b.EstimateJoinCard(expr)
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
	qPreds := oraclePredSet(expr)
	keys := make([]string, 0, len(sits))
	for k := range sits {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, c := range cols {
		slot, err := oracleResolveSlot(b, sits, expr, qPreds, keys, c)
		if err != nil {
			return nil, err
		}
		p.slots[i] = slot
	}
	return p, nil
}

// oracleResolveSlot finds the most specific statistic for one column: the
// first SIT with the most tables in sorted-key, then registration order.
func oracleResolveSlot(b *sit.Builder, sits map[string][]*sit.SIT, expr *query.Expr, qPreds map[string]bool, keys []string, c PredColumn) (planSlot, error) {
	var best *sit.SIT
	for _, k := range keys {
		for _, s := range sits[k] {
			if s.Spec.Table != c.Table || s.Spec.Attr != c.Attr {
				continue
			}
			if !oracleIsSubExpression(s.Spec.Expr, expr, qPreds) {
				continue
			}
			if best == nil || s.Spec.Expr.NumTables() > best.Spec.Expr.NumTables() {
				best = s
			}
		}
	}
	if best != nil {
		return planSlot{col: c, stat: best.Spec.String(), tables: best.Spec.Expr.NumTables(), hist: best.Hist, total: best.Hist.TotalFreq()}, nil
	}
	h, err := b.BaseHistogram(c.Table, c.Attr)
	if err != nil {
		return planSlot{}, err
	}
	return planSlot{col: c, stat: fmt.Sprintf("base histogram %s.%s", c.Table, c.Attr), tables: 1, hist: h, total: h.TotalFreq()}, nil
}

// oraclePredSet returns the normalized predicate strings of an expression.
func oraclePredSet(e *query.Expr) map[string]bool {
	set := map[string]bool{}
	for _, j := range e.Joins() {
		lt, la, rt, ra := j.LeftTable, j.LeftAttr, j.RightTable, j.RightAttr
		if lt > rt || (lt == rt && la > ra) {
			lt, la, rt, ra = rt, ra, lt, la
		}
		set[fmt.Sprintf("%s.%s=%s.%s", lt, la, rt, ra)] = true
	}
	return set
}

func oracleIsSubExpression(sub, q *query.Expr, qPreds map[string]bool) bool {
	for _, t := range sub.Tables() {
		if !q.HasTable(t) {
			return false
		}
	}
	for p := range oraclePredSet(sub) {
		if !qPreds[p] {
			return false
		}
	}
	return true
}

// registered flattens the estimator's registrations into the oracle's map.
func (e *Estimator) registered() map[string][]*sit.SIT {
	out := map[string][]*sit.SIT{}
	for k, list := range e.sits {
		for _, en := range list {
			out[k] = append(out[k], en.s)
		}
	}
	return out
}

// propertyUniverse returns the generating expressions random SITs and
// queries are drawn from: the 5-table chain, and the same chain with a
// second predicate on two of its edges, so equal table sets can carry
// different predicate sets (and different canonical keys).
func propertyUniverse(t *testing.T) []*query.Expr {
	t.Helper()
	var chain, multi []query.JoinPred
	for i := 1; i < 5; i++ {
		p := query.JoinPred{LeftTable: fmt.Sprintf("T%d", i), LeftAttr: "jnext", RightTable: fmt.Sprintf("T%d", i+1), RightAttr: "jprev"}
		chain = append(chain, p)
		multi = append(multi, p)
	}
	multi = append(multi,
		query.JoinPred{LeftTable: "T2", LeftAttr: "b", RightTable: "T1", RightAttr: "b"},
		query.JoinPred{LeftTable: "T3", LeftAttr: "a", RightTable: "T4", RightAttr: "a"})
	var out []*query.Expr
	seen := map[string]bool{}
	for _, joins := range [][]query.JoinPred{chain, multi} {
		u := query.MustNewExpr(joins...)
		for _, anchor := range u.Tables() {
			subs, err := u.ConnectedSubExprs(anchor, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range subs {
				if !seen[s.Canonical()] {
					seen[s.Canonical()] = true
					out = append(out, s)
				}
			}
		}
	}
	for i := 1; i <= 5; i++ {
		base, err := query.NewBaseExpr(fmt.Sprintf("T%d", i))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, base)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Canonical() < out[j].Canonical() })
	return out
}

// TestMatchIndexEqualsOracle is the property test of the compiled matching:
// over random SIT sets — many candidates per column with equal table counts,
// replacements of an already registered spec, SITs over base expressions —
// and random query shapes, Prepare resolves the same join cardinality, join
// statistic and per-slot statistics as the original full scan, and Execute
// answers bit-identically.
func TestMatchIndexEqualsOracle(t *testing.T) {
	cfg := datagen.DefaultChainConfig()
	cfg.Tables = 5
	cfg.Rows = []int{600, 500, 400, 300, 200}
	cat, err := datagen.ChainDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sit.NewBuilder(cat, sit.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	universe := propertyUniverse(t)
	attrs := []string{"a", "b"}
	rng := rand.New(rand.NewSource(29))
	ties, repeats := 0, 0
	for round := 0; round < 40; round++ {
		e, err := New(b)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := 0, 5+rng.Intn(40); i < n; i++ {
			expr := universe[rng.Intn(len(universe))]
			tables := expr.Tables()
			spec, err := query.NewSITSpec(tables[rng.Intn(len(tables))], attrs[rng.Intn(len(attrs))], expr)
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]int64, 50+rng.Intn(200))
			for j := range vals {
				vals[j] = rng.Int63n(2000)
			}
			h, err := histogram.FromValues(vals, 1+rng.Intn(20), histogram.MaxDiffArea)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Register(&sit.SIT{Spec: spec, Hist: h, Method: sit.SweepFull, EstimatedCard: float64(rng.Intn(100000))}); err != nil {
				t.Fatal(err)
			}
		}
		sits := e.registered()
		for q := 0; q < 30; q++ {
			expr := universe[rng.Intn(len(universe))]
			tables := expr.Tables()
			cols := make([]PredColumn, rng.Intn(4))
			preds := make([]Predicate, len(cols))
			for i := range cols {
				cols[i] = PredColumn{Table: tables[rng.Intn(len(tables))], Attr: attrs[rng.Intn(len(attrs))]}
				lo := rng.Int63n(2000)
				preds[i] = Predicate{Table: cols[i].Table, Attr: cols[i].Attr, Lo: lo, Hi: lo + rng.Int63n(1000)}
			}
			if repeatsColumn(cols) {
				// The original matching accepted such shapes; Prepare refuses them.
				if _, err := e.Prepare(expr, cols); !errors.Is(err, ErrRepeatedColumn) {
					t.Fatalf("round %d %s: Prepare(%v) = %v, want ErrRepeatedColumn", round, expr, cols, err)
				}
				repeats++
				continue
			}
			want, err := oraclePrepare(b, sits, expr, cols)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Prepare(expr, cols)
			if err != nil {
				t.Fatal(err)
			}
			if got.joinCard != want.joinCard || got.joinStat != want.joinStat {
				t.Fatalf("round %d %s: join %v %q, oracle %v %q", round, expr, got.joinCard, got.joinStat, want.joinCard, want.joinStat)
			}
			for i := range cols {
				g, w := got.slots[i], want.slots[i]
				if g.col != w.col || g.stat != w.stat || g.tables != w.tables || g.hist != w.hist || g.total != w.total {
					t.Fatalf("round %d %s column %v: slot %q (%d tables), oracle %q (%d tables)", round, expr, cols[i], g.stat, g.tables, w.stat, w.tables)
				}
				if w.tables > 1 && tiedCandidates(sits, expr, cols[i], w.tables) > 1 {
					ties++
				}
			}
			gotEst, err := got.Execute(preds)
			if err != nil {
				t.Fatal(err)
			}
			wantEst, err := want.Execute(preds)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotEst, wantEst) || math.Float64bits(gotEst.Cardinality) != math.Float64bits(wantEst.Cardinality) {
				t.Fatalf("round %d %s: Execute %+v, oracle %+v", round, expr, gotEst, wantEst)
			}
		}
	}
	if ties == 0 {
		t.Fatal("no slot was resolved among tied candidates: the property test does not exercise tie-breaking")
	}
	if repeats == 0 {
		t.Fatal("no shape repeated a column: the property test does not exercise ErrRepeatedColumn")
	}
	t.Logf("%d slots resolved among tied candidates, %d shapes refused for a repeated column", ties, repeats)
}

// repeatsColumn reports whether two of the columns are the same.
func repeatsColumn(cols []PredColumn) bool {
	seen := map[PredColumn]bool{}
	for _, c := range cols {
		if seen[c] {
			return true
		}
		seen[c] = true
	}
	return false
}

// tiedCandidates counts the applicable SITs over the column with the given
// table count.
func tiedCandidates(sits map[string][]*sit.SIT, expr *query.Expr, c PredColumn, tables int) int {
	n := 0
	qPreds := oraclePredSet(expr)
	for _, list := range sits {
		for _, s := range list {
			if s.Spec.Table == c.Table && s.Spec.Attr == c.Attr && s.Spec.Expr.NumTables() == tables && oracleIsSubExpression(s.Spec.Expr, expr, qPreds) {
				n++
			}
		}
	}
	return n
}

// TestPrepareMemoFollowsGenerations: the memoized fallbacks never outlive
// the data they were computed from. After an append, Prepare re-resolves the
// base statistics and join cardinality and agrees with the oracle on the
// grown tables; TryPrepare reports the miss until Prepare has filled it.
func TestPrepareMemoFollowsGenerations(t *testing.T) {
	b, e, expr := correlatedSetup(t)
	cols := []PredColumn{{Table: "T2", Attr: "a"}, {Table: "T1", Attr: "b"}}
	if _, ok, err := e.TryPrepare(expr, cols); err != nil || ok {
		t.Fatalf("TryPrepare on empty memos: ok=%v err=%v, want a miss", ok, err)
	}
	check := func(step string) {
		t.Helper()
		got, err := e.Prepare(expr, cols)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oraclePrepare(b, e.registered(), expr, cols)
		if err != nil {
			t.Fatal(err)
		}
		if got.joinCard != want.joinCard || !reflect.DeepEqual(got.slots, want.slots) {
			t.Fatalf("%s: plan %+v, oracle %+v", step, got, want)
		}
		again, ok, err := e.TryPrepare(expr, cols)
		if err != nil || !ok || !reflect.DeepEqual(again, got) {
			t.Fatalf("%s: TryPrepare after Prepare: ok=%v err=%v", step, ok, err)
		}
	}
	check("fresh")
	before, _ := e.Prepare(expr, cols)
	t2 := b.Catalog().MustTable("T2")
	row, err := t2.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		row[len(row)-1] = int64(100000 + i)
		if err := t2.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := e.TryPrepare(expr, cols); err != nil || ok {
		t.Fatalf("TryPrepare after an append: ok=%v err=%v, want a miss", ok, err)
	}
	check("after append")
	after, _ := e.Prepare(expr, cols)
	if after.joinCard == before.joinCard {
		t.Fatalf("append did not move the join cardinality (%v -> %v)", before.joinCard, after.joinCard)
	}
}

// TestJoinMemoBounded: the join-cardinality memo never holds more than
// maxJoinMemo expressions; the key that passes the bound starts a new memo.
func TestJoinMemoBounded(t *testing.T) {
	_, e, _ := correlatedSetup(t)
	for i := 0; i <= maxJoinMemo; i++ {
		e.memoJoin(fmt.Sprintf("expr%d", i), &joinMemo{card: float64(i)})
	}
	n := 0
	e.joins.Range(func(_, _ any) bool { n++; return true })
	if n != 1 || e.nJoins != 1 {
		t.Fatalf("memo holds %d entries (count %d), want 1 after passing the bound", n, e.nJoins)
	}
	if _, ok := e.joins.Load(fmt.Sprintf("expr%d", maxJoinMemo)); !ok {
		t.Fatal("the key that passed the bound was not stored")
	}
}
