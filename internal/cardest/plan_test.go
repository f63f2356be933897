package cardest

import (
	"errors"
	"reflect"
	"testing"

	"github.com/sitstats/sits/internal/query"
	"github.com/sitstats/sits/internal/sit"
)

// TestPlanMatchesEstimate asserts the prepare/execute split is invisible: a
// plan prepared once and executed with many constant sets answers
// bit-identically to one-shot Estimate calls, both before and after SITs are
// registered.
func TestPlanMatchesEstimate(t *testing.T) {
	b, e, expr := correlatedSetup(t)
	spec, err := query.NewSITSpec("T2", "a", expr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := b.Build(spec, sit.SweepFull)
	if err != nil {
		t.Fatal(err)
	}

	ranges := [][2]int64{{0, 900}, {100, 1500}, {500, 501}, {0, 1 << 40}}
	for _, registered := range []bool{false, true} {
		if registered {
			if err := e.Register(s); err != nil {
				t.Fatal(err)
			}
		}
		cols := []PredColumn{{Table: "T2", Attr: "a"}, {Table: "T1", Attr: "b"}}
		plan, err := e.Prepare(expr, cols)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ranges {
			preds := []Predicate{
				{Table: "T2", Attr: "a", Lo: r[0], Hi: r[1]},
				{Table: "T1", Attr: "b", Lo: 0, Hi: 5000},
			}
			fromPlan, err := plan.Execute(preds)
			if err != nil {
				t.Fatal(err)
			}
			oneShot, err := e.Estimate(SPJQuery{Expr: expr, Preds: preds})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fromPlan, oneShot) {
				t.Fatalf("registered=%v range %v: plan execute diverges from Estimate:\nplan %+v\nest  %+v",
					registered, r, fromPlan, oneShot)
			}
			if registered && fromPlan.Sources[0].Stat != s.Spec.String() {
				t.Fatalf("plan did not resolve the registered SIT: %+v", fromPlan.Sources[0])
			}
		}
	}
}

// TestPlanNoPredicates covers the predicate-free shape: the plan carries only
// the join cardinality.
func TestPlanNoPredicates(t *testing.T) {
	_, e, expr := correlatedSetup(t)
	plan, err := e.Prepare(expr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumSlots() != 0 {
		t.Fatalf("slots %d, want 0", plan.NumSlots())
	}
	got, err := plan.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Estimate(SPJQuery{Expr: expr})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("predicate-free plan diverges: %+v vs %+v", got, want)
	}
}

// TestPlanValidation covers shape mismatches between Prepare and Execute.
func TestPlanValidation(t *testing.T) {
	_, e, expr := correlatedSetup(t)
	if _, err := e.Prepare(nil, nil); err == nil {
		t.Error("nil expr: want error")
	}
	if _, err := e.Prepare(expr, []PredColumn{{Table: "ZZ", Attr: "a"}}); err == nil {
		t.Error("column outside query: want error")
	}
	plan, err := e.Prepare(expr, []PredColumn{{Table: "T2", Attr: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(nil); err == nil {
		t.Error("arity mismatch: want error")
	}
	if _, err := plan.Execute([]Predicate{{Table: "T1", Attr: "b", Lo: 0, Hi: 1}}); err == nil {
		t.Error("column mismatch: want error")
	}
	if _, err := plan.Execute([]Predicate{{Table: "T2", Attr: "a", Lo: 5, Hi: 1}}); err == nil {
		t.Error("empty range: want error")
	}
}

// TestPrepareRepeatedColumn: Prepare and TryPrepare refuse two predicate
// columns on one (table, attr), as Validate does, so a caller that skips
// Validate cannot get a plan that multiplies two ranges over one column as
// if they were independent (disjoint ranges would estimate a positive count
// where the truth is 0). The same attribute on two tables is fine.
func TestPrepareRepeatedColumn(t *testing.T) {
	_, e, expr := correlatedSetup(t)
	for _, cols := range [][]PredColumn{
		{{Table: "T2", Attr: "a"}, {Table: "T2", Attr: "a"}},
		{{Table: "T2", Attr: "a"}, {Table: "T1", Attr: "b"}, {Table: "T2", Attr: "a"}},
	} {
		if _, err := e.Prepare(expr, cols); !errors.Is(err, ErrRepeatedColumn) {
			t.Errorf("%v: Prepare = %v, want ErrRepeatedColumn", cols, err)
		}
		if _, _, err := e.TryPrepare(expr, cols); !errors.Is(err, ErrRepeatedColumn) {
			t.Errorf("%v: TryPrepare = %v, want ErrRepeatedColumn", cols, err)
		}
	}
	if _, err := e.Prepare(expr, []PredColumn{{Table: "T1", Attr: "a"}, {Table: "T2", Attr: "a"}}); err != nil {
		t.Errorf("one attribute on two tables: Prepare = %v, want nil", err)
	}
}

// TestShapeKey asserts shape keys are order-insensitive in the columns and
// distinguish different shapes.
func TestShapeKey(t *testing.T) {
	_, _, expr := correlatedSetup(t)
	a := ShapeKey(expr, []PredColumn{{"T2", "a"}, {"T1", "b"}})
	b := ShapeKey(expr, []PredColumn{{"T1", "b"}, {"T2", "a"}})
	if a != b {
		t.Fatalf("permuted columns changed the shape key:\n%q\n%q", a, b)
	}
	if c := ShapeKey(expr, []PredColumn{{"T2", "a"}}); c == a {
		t.Fatal("dropping a column kept the shape key")
	}
	if d := ShapeKey(expr, nil); d != expr.Canonical() {
		t.Fatalf("empty shape key %q, want canonical expr %q", d, expr.Canonical())
	}
}
