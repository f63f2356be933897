package sit

import (
	"fmt"
	"testing"

	"github.com/sitstats/sits/internal/query"
)

// TestPlanPin asserts the pin covers exactly the expression's tables and
// moves with both invalidation inputs: any publish moves every pin, and a
// data mutation moves only the pins over the mutated table.
func TestPlanPin(t *testing.T) {
	cat := chainCatalog(t)
	reg, err := NewRegistry(cat, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	expr12, err := query.ParseExpr("T1 JOIN T2 ON T1.jnext = T2.jprev")
	if err != nil {
		t.Fatal(err)
	}
	expr34, err := query.ParseExpr("T3 JOIN T4 ON T3.jnext = T4.jprev")
	if err != nil {
		t.Fatal(err)
	}
	pin12, err := reg.PlanPin(expr12)
	if err != nil {
		t.Fatal(err)
	}
	pin34, err := reg.PlanPin(expr34)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("e0\x00T1@%d\x00T2@%d", cat.MustTable("T1").Generation(), cat.MustTable("T2").Generation())
	if pin12 != want {
		t.Fatalf("pin over T1,T2 = %q, want %q", pin12, want)
	}

	// A SIT build over T1-T2 publishes a new epoch: both pins move.
	if _, err := reg.Get(mustSpec(t, registrySpecs[0]), SweepFull); err != nil {
		t.Fatal(err)
	}
	if p, err := reg.PlanPin(expr12); err != nil || p == pin12 {
		t.Fatalf("pin over T1,T2 unchanged after SIT build (err %v)", err)
	}
	if p, err := reg.PlanPin(expr34); err != nil || p == pin34 {
		t.Fatalf("pin over T3,T4 unchanged after a publish (err %v)", err)
	}

	// A data mutation of T3 moves pin34 only.
	if pin12, err = reg.PlanPin(expr12); err != nil {
		t.Fatal(err)
	}
	if pin34, err = reg.PlanPin(expr34); err != nil {
		t.Fatal(err)
	}
	t3 := cat.MustTable("T3")
	row, err := t3.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := t3.AppendRow(row...); err != nil {
		t.Fatal(err)
	}
	if p, err := reg.PlanPin(expr34); err != nil || p == pin34 {
		t.Fatalf("pin over T3,T4 unchanged after T3 mutation (err %v)", err)
	}
	if p, err := reg.PlanPin(expr12); err != nil || p != pin12 {
		t.Fatalf("pin over T1,T2 moved by a T3 mutation (err %v)", err)
	}

	if _, err := reg.PlanPin(nil); err == nil {
		t.Fatal("nil expression: want error")
	}
}
