package cardest

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/datagen"
	"github.com/sitstats/sits/internal/exec"
	"github.com/sitstats/sits/internal/query"
	"github.com/sitstats/sits/internal/sit"
)

// correlatedSetup builds a 2-table join with strongly correlated join/SIT
// attributes (the scenario where base-histogram propagation fails), plus a
// builder and estimator.
func correlatedSetup(t *testing.T) (*sit.Builder, *Estimator, *query.Expr) {
	t.Helper()
	cfg := datagen.DefaultChainConfig()
	cfg.Tables = 2
	cfg.Rows = []int{4000, 3000}
	cat, err := datagen.ChainDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sit.NewBuilder(cat, sit.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(b)
	if err != nil {
		t.Fatal(err)
	}
	expr, err := query.NewExpr(query.JoinPred{LeftTable: "T1", LeftAttr: "jnext", RightTable: "T2", RightAttr: "jprev"})
	if err != nil {
		t.Fatal(err)
	}
	return b, e, expr
}

func TestEstimateValidation(t *testing.T) {
	_, e, expr := correlatedSetup(t)
	if _, err := e.Estimate(SPJQuery{}); err == nil {
		t.Error("nil expr: want error")
	}
	if _, err := e.Estimate(SPJQuery{Expr: expr, Preds: []Predicate{{Table: "ZZ", Attr: "a", Lo: 0, Hi: 1}}}); err == nil {
		t.Error("predicate outside query: want error")
	}
	if _, err := e.Estimate(SPJQuery{Expr: expr, Preds: []Predicate{{Table: "T2", Attr: "a", Lo: 5, Hi: 1}}}); err == nil {
		t.Error("empty range: want error")
	}
}

// TestValidateRepeatedColumn: two predicates on one column are refused,
// since estimation would multiply their selectivities as if independent —
// disjoint ranges would estimate a positive count where the truth is 0. The
// same attribute name on two tables, or two attributes of one table, is fine.
func TestValidateRepeatedColumn(t *testing.T) {
	b, e, expr := correlatedSetup(t)
	cat := b.Catalog()
	for _, preds := range [][]Predicate{
		{{Table: "T2", Attr: "a", Lo: 0, Hi: 900}, {Table: "T2", Attr: "a", Lo: 1000, Hi: 2000}},
		{{Table: "T2", Attr: "a", Lo: 0, Hi: 900}, {Table: "T2", Attr: "a", Lo: 0, Hi: 900}},
		{{Table: "T2", Attr: "a", Lo: 0, Hi: 900}, {Table: "T1", Attr: "b", Lo: 0, Hi: 50}, {Table: "T2", Attr: "a", Lo: 5, Hi: 9}},
	} {
		q := SPJQuery{Expr: expr, Preds: preds}
		err := Validate(cat, q)
		if !errors.Is(err, ErrRepeatedColumn) || !strings.Contains(err.Error(), "intersect") {
			t.Errorf("%v: Validate = %v, want ErrRepeatedColumn asking to intersect the ranges", preds, err)
		}
		if _, err := e.Estimate(q); !errors.Is(err, ErrRepeatedColumn) {
			t.Errorf("%v: Estimate = %v, want ErrRepeatedColumn", preds, err)
		}
	}
	for _, preds := range [][]Predicate{
		{{Table: "T1", Attr: "a", Lo: 0, Hi: 900}, {Table: "T2", Attr: "a", Lo: 0, Hi: 900}},
		{{Table: "T2", Attr: "a", Lo: 0, Hi: 900}, {Table: "T2", Attr: "b", Lo: 0, Hi: 900}},
	} {
		if err := Validate(cat, SPJQuery{Expr: expr, Preds: preds}); err != nil {
			t.Errorf("%v: Validate = %v, want nil", preds, err)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	_, e, _ := correlatedSetup(t)
	if err := e.Register(nil); err == nil {
		t.Error("nil SIT: want error")
	}
	if e.Registered() != 0 {
		t.Errorf("Registered = %d", e.Registered())
	}
}

func TestSITImprovesEstimate(t *testing.T) {
	b, e, expr := correlatedSetup(t)
	spec, err := query.NewSITSpec("T2", "a", expr)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth for a selective predicate over the correlated attribute.
	pred := Predicate{Table: "T2", Attr: "a", Lo: 1, Hi: 20}
	trueCard, err := exec.RangeCardinality(b.Catalog(), expr, "T2", "a", pred.Lo, pred.Hi)
	if err != nil {
		t.Fatal(err)
	}
	q := SPJQuery{Expr: expr, Preds: []Predicate{pred}}

	before, err := e.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if before.JoinStat != "base-histogram propagation" {
		t.Errorf("JoinStat before = %q", before.JoinStat)
	}
	if len(before.Sources) != 1 || !strings.HasPrefix(before.Sources[0].Stat, "base histogram") {
		t.Errorf("sources before = %+v", before.Sources)
	}

	s, err := b.Build(spec, sit.SweepFull)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(s); err != nil {
		t.Fatal(err)
	}
	if e.Registered() != 1 {
		t.Errorf("Registered = %d", e.Registered())
	}
	after, err := e.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(after.Sources[0].Stat, "SIT(") {
		t.Errorf("sources after = %+v", after.Sources)
	}
	errBefore := math.Abs(before.Cardinality - float64(trueCard))
	errAfter := math.Abs(after.Cardinality - float64(trueCard))
	t.Logf("true=%d before=%.0f after=%.0f", trueCard, before.Cardinality, after.Cardinality)
	if errAfter >= errBefore {
		t.Errorf("SIT did not improve the estimate: |%v-%d| vs |%v-%d|",
			after.Cardinality, trueCard, before.Cardinality, trueCard)
	}
}

func TestMostSpecificSITWins(t *testing.T) {
	cfg := datagen.DefaultChainConfig()
	cfg.Tables = 3
	cfg.Rows = []int{2000, 1500, 1000}
	cat, err := datagen.ChainDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sit.NewBuilder(cat, sit.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(b)
	if err != nil {
		t.Fatal(err)
	}
	full, err := query.Chain([]string{"T1", "T2", "T3"}, []string{"jnext", "jnext"}, []string{"jprev", "jprev"})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := query.NewExpr(query.JoinPred{LeftTable: "T2", LeftAttr: "jnext", RightTable: "T3", RightAttr: "jprev"})
	if err != nil {
		t.Fatal(err)
	}
	subSpec, _ := query.NewSITSpec("T3", "a", sub)
	fullSpec, _ := query.NewSITSpec("T3", "a", full)
	subSIT, err := b.Build(subSpec, sit.SweepFull)
	if err != nil {
		t.Fatal(err)
	}
	fullSIT, err := b.Build(fullSpec, sit.SweepFull)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(subSIT); err != nil {
		t.Fatal(err)
	}
	q := SPJQuery{Expr: full, Preds: []Predicate{{Table: "T3", Attr: "a", Lo: 1, Hi: 50}}}
	est, err := e.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if est.Sources[0].Tables != 2 {
		t.Errorf("expected 2-table sub-SIT match, got %+v", est.Sources[0])
	}
	if err := e.Register(fullSIT); err != nil {
		t.Fatal(err)
	}
	est, err = e.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if est.Sources[0].Tables != 3 {
		t.Errorf("expected 3-table SIT to win, got %+v", est.Sources[0])
	}
	if est.JoinStat == "base-histogram propagation" {
		t.Errorf("full-expression SIT should provide the join cardinality")
	}
	// Re-registering replaces, not duplicates.
	if err := e.Register(fullSIT); err != nil {
		t.Fatal(err)
	}
	if e.Registered() != 2 {
		t.Errorf("Registered = %d, want 2", e.Registered())
	}
}

func TestInapplicableSITIgnored(t *testing.T) {
	b, e, expr := correlatedSetup(t)
	// A SIT over a different join predicate (T1.b instead of T1.jnext) must
	// not match the query.
	other, err := query.NewExpr(query.JoinPred{LeftTable: "T1", LeftAttr: "b", RightTable: "T2", RightAttr: "jprev"})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := query.NewSITSpec("T2", "a", other)
	s, err := b.Build(spec, sit.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(s); err != nil {
		t.Fatal(err)
	}
	est, err := e.Estimate(SPJQuery{Expr: expr, Preds: []Predicate{{Table: "T2", Attr: "a", Lo: 1, Hi: 30}}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(est.Sources[0].Stat, "base histogram") {
		t.Errorf("inapplicable SIT was used: %+v", est.Sources[0])
	}
}

func TestBaseTableQuery(t *testing.T) {
	cat := data.NewCatalog()
	tab := data.MustNewTable("R", "a")
	for i := int64(0); i < 100; i++ {
		tab.AppendRow(i % 10)
	}
	cat.MustAdd(tab)
	b, err := sit.NewBuilder(cat, sit.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(b)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := query.NewBaseExpr("R")
	est, err := e.Estimate(SPJQuery{Expr: base, Preds: []Predicate{{Table: "R", Attr: "a", Lo: 0, Hi: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.JoinCard-100) > 1e-9 {
		t.Errorf("JoinCard = %v, want 100", est.JoinCard)
	}
	if math.Abs(est.Cardinality-50) > 1e-9 {
		t.Errorf("Cardinality = %v, want 50", est.Cardinality)
	}
}

func TestMultiplePredicates(t *testing.T) {
	b, e, expr := correlatedSetup(t)
	spec, _ := query.NewSITSpec("T2", "a", expr)
	s, err := b.Build(spec, sit.SweepFull)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(s); err != nil {
		t.Fatal(err)
	}
	est, err := e.Estimate(SPJQuery{Expr: expr, Preds: []Predicate{
		{Table: "T2", Attr: "a", Lo: 1, Hi: 100},
		{Table: "T2", Attr: "b", Lo: 1, Hi: 5000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Sources) != 2 {
		t.Fatalf("sources = %+v", est.Sources)
	}
	if est.Cardinality > est.JoinCard {
		t.Errorf("predicates increased cardinality: %v > %v", est.Cardinality, est.JoinCard)
	}
	for _, src := range est.Sources {
		if src.Selectivity < 0 || src.Selectivity > 1 {
			t.Errorf("selectivity out of [0,1]: %+v", src)
		}
	}
}
