package query

import (
	"reflect"
	"strings"
	"testing"
)

func pred(lt, la, rt, ra string) JoinPred {
	return JoinPred{LeftTable: lt, LeftAttr: la, RightTable: rt, RightAttr: ra}
}

func TestNewExprValidation(t *testing.T) {
	if _, err := NewExpr(); err == nil {
		t.Error("no joins: want error")
	}
	if _, err := NewExpr(pred("R", "x", "R", "y")); err == nil {
		t.Error("self join: want error")
	}
	if _, err := NewExpr(pred("", "x", "S", "y")); err == nil {
		t.Error("empty table: want error")
	}
	// Disconnected: R-S and T-U.
	if _, err := NewExpr(pred("R", "x", "S", "y"), pred("T", "x", "U", "y")); err == nil {
		t.Error("disconnected: want error")
	}
}

func TestBaseExpr(t *testing.T) {
	e, err := NewBaseExpr("R")
	if err != nil {
		t.Fatal(err)
	}
	if e.NumTables() != 1 || !e.HasTable("R") || e.HasTable("S") {
		t.Errorf("base expr tables: %v", e.Tables())
	}
	if !e.IsAcyclic() {
		t.Error("base expr should be acyclic")
	}
	if e.String() != "R" {
		t.Errorf("String = %q", e.String())
	}
	if _, err := NewBaseExpr(""); err == nil {
		t.Error("empty base: want error")
	}
}

func TestChain(t *testing.T) {
	e, err := Chain([]string{"R", "S", "T"}, []string{"r1", "s2"}, []string{"s1", "t1"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e.Tables(), []string{"R", "S", "T"}) {
		t.Errorf("tables = %v", e.Tables())
	}
	if len(e.Joins()) != 2 {
		t.Errorf("joins = %v", e.Joins())
	}
	if !e.IsAcyclic() {
		t.Error("chain should be acyclic")
	}
	if _, err := Chain([]string{"R"}, nil, nil); err == nil {
		t.Error("1-table chain: want error")
	}
	if _, err := Chain([]string{"R", "S"}, []string{"a", "b"}, []string{"c"}); err == nil {
		t.Error("attr count mismatch: want error")
	}
}

func TestIsAcyclic(t *testing.T) {
	tri, err := NewExpr(
		pred("R", "x", "S", "y"),
		pred("S", "z", "T", "w"),
		pred("T", "v", "R", "u"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if tri.IsAcyclic() {
		t.Error("triangle should be cyclic")
	}
	// Two predicates between the same pair: still acyclic (one edge).
	multi, err := NewExpr(pred("R", "w", "S", "x"), pred("R", "y", "S", "z"))
	if err != nil {
		t.Fatal(err)
	}
	if !multi.IsAcyclic() {
		t.Error("multi-predicate pair should count as one edge")
	}
}

func TestCanonicalAndEqual(t *testing.T) {
	a := MustNewExpr(pred("R", "x", "S", "y"), pred("S", "z", "T", "w"))
	b := MustNewExpr(pred("T", "w", "S", "z"), pred("S", "y", "R", "x")) // reversed & reordered
	if a.Canonical() != b.Canonical() {
		t.Errorf("canonical mismatch:\n%s\n%s", a.Canonical(), b.Canonical())
	}
	if !a.Equal(b) {
		t.Error("Equal = false for equivalent expressions")
	}
	c := MustNewExpr(pred("R", "x", "S", "y"))
	if a.Equal(c) || a.Equal(nil) {
		t.Error("Equal = true for different expressions")
	}
	// A predicate repeated in either direction is one predicate.
	dup, err := ParseExpr("T1 JOIN T2 ON T1.a = T2.b AND T2.b = T1.a")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dup.Canonical(), "T1,T2{T1.a = T2.b}"; got != want || dup.NumJoins() != 1 {
		t.Errorf("duplicate predicates: canonical %q with %d joins, want %q with 1", got, dup.NumJoins(), want)
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	exprs := []*Expr{
		MustNewExpr(pred("R", "x", "S", "y")),
		MustNewExpr(pred("R", "x", "S", "y"), pred("S", "z", "T", "w")),
		MustNewExpr(pred("R", "r1", "S", "s1"), pred("R", "r2", "U", "u1"), pred("U", "u2", "V", "v1")),
		MustNewExpr(pred("R", "w", "S", "x"), pred("R", "y", "S", "z")),
		// The R-S edge's second predicate comes after the S-T edge.
		MustNewExpr(pred("R", "w", "S", "x"), pred("S", "z", "T", "w"), pred("R", "y", "S", "z")),
	}
	for _, e := range exprs {
		back, err := ParseExpr(e.String())
		if err != nil {
			t.Errorf("reparsing %q: %v", e.String(), err)
			continue
		}
		if !e.Equal(back) {
			t.Errorf("round trip changed expression: %q -> %q", e.Canonical(), back.Canonical())
		}
	}
}

func TestSITSpec(t *testing.T) {
	e := MustNewExpr(pred("R", "x", "S", "y"))
	s, err := NewSITSpec("S", "a", e)
	if err != nil {
		t.Fatal(err)
	}
	if s.IsBase() {
		t.Error("join SIT reported as base")
	}
	if got := s.String(); !strings.HasPrefix(got, "SIT(S.a | ") {
		t.Errorf("String = %q", got)
	}
	if _, err := NewSITSpec("T", "a", e); err == nil {
		t.Error("attr table not in expr: want error")
	}
	if _, err := NewSITSpec("", "a", e); err == nil {
		t.Error("empty table: want error")
	}
	if _, err := NewSITSpec("S", "a", nil); err == nil {
		t.Error("nil expr: want error")
	}
	base, _ := NewBaseExpr("R")
	bs, err := NewSITSpec("R", "a", base)
	if err != nil {
		t.Fatal(err)
	}
	if !bs.IsBase() {
		t.Error("base SIT not reported as base")
	}
	// Canonical keys distinguish attribute and expression.
	s2, _ := NewSITSpec("S", "b", e)
	if s.Canonical() == s2.Canonical() {
		t.Error("different attrs share canonical key")
	}
}

func TestConnectedSubExprs(t *testing.T) {
	// Chain R-S-T anchored at T: {S-T}, {R-S-T}.
	chain, err := Chain([]string{"R", "S", "T"}, []string{"r1", "s2"}, []string{"s1", "t1"})
	if err != nil {
		t.Fatal(err)
	}
	subs, err := chain.ConnectedSubExprs("T", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("subs = %d, want 2", len(subs))
	}
	sizes := map[int]bool{}
	for _, s := range subs {
		if !s.HasTable("T") {
			t.Errorf("sub-expression %q missing anchor", s.String())
		}
		sizes[s.NumTables()] = true
	}
	if !sizes[2] || !sizes[3] {
		t.Errorf("expected 2- and 3-table sub-expressions")
	}
	// maxTables caps enumeration.
	subs, err = chain.ConnectedSubExprs("T", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].NumTables() != 2 {
		t.Errorf("capped subs = %v", subs)
	}
	// Star anchored at the hub: edges in every combination.
	star := MustNewExpr(
		pred("C", "j1", "D1", "k"),
		pred("C", "j2", "D2", "k"),
	)
	subs, err = star.ConnectedSubExprs("C", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 3 { // {C,D1}, {C,D2}, {C,D1,D2}
		t.Errorf("star subs = %d, want 3", len(subs))
	}
	// Anchored at a leaf, the single-edge sub without the anchor is excluded.
	subs, err = star.ConnectedSubExprs("D1", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if !s.HasTable("D1") {
			t.Errorf("leaf-anchored sub %q missing anchor", s.String())
		}
	}
	if len(subs) != 2 { // {C,D1}, {C,D1,D2}
		t.Errorf("leaf-anchored subs = %d, want 2", len(subs))
	}
	// Errors.
	if _, err := chain.ConnectedSubExprs("ZZ", 4); err == nil {
		t.Error("bad anchor: want error")
	}
	if _, err := chain.ConnectedSubExprs("T", 1); err == nil {
		t.Error("maxTables < 2: want error")
	}
	// Multi-predicate edges stay intact.
	multi := MustNewExpr(pred("R", "w", "S", "x"), pred("R", "y", "S", "z"))
	subs, err = multi.ConnectedSubExprs("S", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || len(subs[0].Joins()) != 2 {
		t.Errorf("multi-pred subs = %v", subs)
	}
}

// TestContains covers the SIT-applicability test: tables and join predicates
// of the sub-expression must all appear in the query, predicates in either
// direction.
func TestContains(t *testing.T) {
	q := MustNewExpr(
		JoinPred{"R", "a", "S", "b"},
		JoinPred{"S", "c", "T", "d"},
		JoinPred{"S", "e", "T", "f"},
	)
	base, err := NewBaseExpr("T")
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewBaseExpr("U")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sub  *Expr
		want bool
	}{
		{q, true},
		{MustNewExpr(JoinPred{"S", "b", "R", "a"}), true}, // reversed direction
		{MustNewExpr(JoinPred{"T", "d", "S", "c"}, JoinPred{"S", "e", "T", "f"}), true},
		{MustNewExpr(JoinPred{"S", "c", "T", "f"}), false}, // same tables, other predicate
		{MustNewExpr(JoinPred{"T", "d", "U", "x"}), false}, // table outside the query
		{base, true},
		{other, false},
	}
	for i, c := range cases {
		if got := q.Contains(c.sub); got != c.want {
			t.Errorf("case %d: Contains(%s) = %v, want %v", i, c.sub, got, c.want)
		}
	}
}
