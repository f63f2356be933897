package sit

import (
	"testing"

	"github.com/sitstats/sits/internal/query"
)

// TestStatGenBumpsExactly asserts per-table stat generations move exactly
// for the tables of changed SITs: a Get over {T1,T2} leaves T3/T4 alone, a
// refresh that rebuilds SITs over {T2,T3} leaves an unrelated T4 SIT's
// generation alone, and an Adopt bumps only the adopted SITs' tables.
func TestStatGenBumpsExactly(t *testing.T) {
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

	gens := func() map[string]uint64 {
		out := map[string]uint64{}
		for _, tb := range []string{"T1", "T2", "T3", "T4"} {
			out[tb] = reg.set.Load().statGen[tb]
		}
		return out
	}
	if g := gens(); g["T1"] != 0 || g["T2"] != 0 || g["T3"] != 0 || g["T4"] != 0 {
		t.Fatalf("fresh registry has non-zero stat gens: %v", g)
	}

	// Building a SIT over T1 JOIN T2 bumps exactly T1 and T2.
	if _, err := reg.Get(mustSpec(t, registrySpecs[0]), SweepFull); err != nil {
		t.Fatal(err)
	}
	if g := gens(); g["T1"] != 1 || g["T2"] != 1 || g["T3"] != 0 || g["T4"] != 0 {
		t.Fatalf("after Get over T1,T2: %v, want T1/T2 bumped only", g)
	}

	// Building over T3 JOIN T4 leaves T1/T2 alone.
	if _, err := reg.Get(mustSpec(t, registrySpecs[2]), SweepFull); err != nil {
		t.Fatal(err)
	}
	if g := gens(); g["T1"] != 1 || g["T2"] != 1 || g["T3"] != 1 || g["T4"] != 1 {
		t.Fatalf("after Get over T3,T4: %v", g)
	}

	// Growing T2 past the threshold and refreshing rebuilds only the T1-T2
	// SIT: T3/T4's subset is untouched.
	t2 := cat.MustTable("T2")
	row, err := t2.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := 0, t2.NumRows()/2; i < n; i++ {
		if err := t2.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt, err := reg.Refresh(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != 1 {
		t.Fatalf("refresh rebuilt %v, want exactly the T1-T2 SIT", rebuilt)
	}
	if g := gens(); g["T1"] != 2 || g["T2"] != 2 || g["T3"] != 1 || g["T4"] != 1 {
		t.Fatalf("after refresh rebuilding T1-T2: %v", g)
	}

	// Adopting a replacement for the T3-T4 SIT bumps exactly T3 and T4.
	s, ok := reg.Lookup(mustSpec(t, registrySpecs[2]), SweepFull)
	if !ok {
		t.Fatal("T3-T4 SIT not served")
	}
	clone := *s
	if err := reg.Adopt([]*SIT{&clone}); err != nil {
		t.Fatal(err)
	}
	if g := gens(); g["T1"] != 2 || g["T2"] != 2 || g["T3"] != 2 || g["T4"] != 2 {
		t.Fatalf("after adopt over T3,T4: %v", g)
	}
}

// TestPlanPin asserts the pin covers exactly the expression's tables and
// moves with both invalidation inputs: the data generation and the SIT-set
// generation.
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

	// A SIT build over T1-T2 moves pin12 but not pin34.
	if _, err := reg.Get(mustSpec(t, registrySpecs[0]), SweepFull); err != nil {
		t.Fatal(err)
	}
	if p, err := reg.PlanPin(expr12); err != nil || p == pin12 {
		t.Fatalf("pin over T1,T2 unchanged after SIT build (err %v)", err)
	}
	if p, err := reg.PlanPin(expr34); err != nil || p != pin34 {
		t.Fatalf("pin over T3,T4 moved by an unrelated build (err %v)", err)
	}

	// A data mutation of T3 moves pin34 only.
	pin12, err = reg.PlanPin(expr12)
	if err != nil {
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
