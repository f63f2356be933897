package exec

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/sitstats/sits/internal/data"
)

// The spill-equivalence property: a memory-governed join yields the
// in-memory join's multiset of rows at any budget — unlimited, a fraction of
// the working set, one small enough to force level-1 sub-partitioning, or a
// pathological 1-byte budget that spills everything. Without a budget the
// rows also keep the in-memory order; once the join spills their order is
// unspecified, so those regimes compare sorted rows.

// spillJoinTables builds a build/probe table pair with heavy key duplication
// and negative keys (keys in [-50, 50] over thousands of rows).
func spillJoinTables(t *testing.T, nl, nr int) (*data.Table, *data.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	l := data.MustNewTable("L", "k", "k2", "v")
	for i := 0; i < nl; i++ {
		if err := l.AppendRow(rng.Int63n(101)-50, rng.Int63n(5), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	r := data.MustNewTable("R", "k", "k2", "u")
	for i := 0; i < nr; i++ {
		if err := r.AppendRow(rng.Int63n(101)-50, rng.Int63n(5), int64(-i)); err != nil {
			t.Fatal(err)
		}
	}
	return l, r
}

// tableBytes is the operator-accounted size of a table's rows.
func tableBytes(tab *data.Table) int64 {
	return int64(tab.NumRows()) * int64(tab.NumCols()) * 8
}

// spillBudgets returns the budget regimes for a working set: unlimited, half
// and a quarter of the working set (partial spill), a fortieth (level-0
// partitions overflow and split again), and 1 byte (everything spills).
func spillBudgets(workingSet int64) []int64 {
	return []int64{0, workingSet / 2, workingSet / 4, workingSet / 40, 1}
}

// sameJoinRows compares a drained join with its in-memory reference: row for
// row at budget 0, as sorted multisets under a budget.
func sameJoinRows(budget int64, got, want [][]int64) bool {
	if budget == 0 {
		return reflect.DeepEqual(got, want)
	}
	return reflect.DeepEqual(sortedCopy(got), sortedCopy(want))
}

// sortedCopy returns rows sorted, leaving the argument as it was.
func sortedCopy(rows [][]int64) [][]int64 {
	out := append([][]int64(nil), rows...)
	sortRows(out)
	return out
}

func TestGraceJoinEquivalence(t *testing.T) {
	l, r := spillJoinTables(t, 3000, 4000)
	cond := JoinCond{LeftCol: "L.k", RightCol: "R.k"}
	refJ, err := NewVecHashJoinSize(NewBatchScan(l), NewBatchScan(r), 0, cond)
	if err != nil {
		t.Fatal(err)
	}
	ref := drainBatches(t, refJ)
	if len(ref) == 0 {
		t.Fatal("reference join is empty; the test data is broken")
	}
	for _, budget := range spillBudgets(tableBytes(l)) {
		j, err := NewVecHashJoinMem(NewBatchScan(l), NewBatchScan(r), 0, newGov(t, budget), cond)
		if err != nil {
			t.Fatal(err)
		}
		got := drainBatches(t, j)
		if !sameJoinRows(budget, got, ref) {
			t.Fatalf("budget=%d: join diverges from in-memory reference (%d vs %d rows)",
				budget, len(got), len(ref))
		}
		if budget > 0 && j.grace == nil {
			t.Fatalf("budget=%d: join never spilled; the budget regime is not exercised", budget)
		}
		if budget == 0 && j.grace != nil {
			t.Fatal("unlimited budget must not spill")
		}
		if budget == tableBytes(l)/40 && j.grace.subID == 0 {
			t.Fatalf("budget=%d: no partition was sub-partitioned; level 1 is not exercised", budget)
		}
		ClosePlan(j)
	}
}

func TestGraceJoinMultiCondEquivalence(t *testing.T) {
	l, r := spillJoinTables(t, 2000, 2500)
	conds := []JoinCond{
		{LeftCol: "L.k", RightCol: "R.k"},
		{LeftCol: "L.k2", RightCol: "R.k2"},
	}
	refJ, err := NewVecHashJoinSize(NewBatchScan(l), NewBatchScan(r), 0, conds...)
	if err != nil {
		t.Fatal(err)
	}
	ref := drainBatches(t, refJ)
	if len(ref) == 0 {
		t.Fatal("reference multi-cond join is empty")
	}
	for _, budget := range spillBudgets(tableBytes(l)) {
		j, err := NewVecHashJoinMem(NewBatchScan(l), NewBatchScan(r), 0, newGov(t, budget), conds...)
		if err != nil {
			t.Fatal(err)
		}
		if got := drainBatches(t, j); !sameJoinRows(budget, got, ref) {
			t.Fatalf("budget=%d: multi-cond join diverges (%d vs %d rows)",
				budget, len(got), len(ref))
		}
		ClosePlan(j)
	}
}

func TestGraceJoinEmptyInputs(t *testing.T) {
	l, r := spillJoinTables(t, 1500, 1500)
	empty := data.MustNewTable("E", "k", "k2", "v")
	cond := JoinCond{LeftCol: "E.k", RightCol: "R.k"}
	for _, budget := range []int64{0, 1} {
		gov := newGov(t, budget)
		// Empty build side.
		j, err := NewVecHashJoinMem(NewBatchScan(empty), NewBatchScan(r), 0, gov, cond)
		if err != nil {
			t.Fatal(err)
		}
		if got := drainBatches(t, j); len(got) != 0 {
			t.Fatalf("budget=%d: empty build side produced %d rows", budget, len(got))
		}
		// Empty probe side.
		j2, err := NewVecHashJoinMem(NewBatchScan(l), NewBatchScan(empty), 0, gov,
			JoinCond{LeftCol: "L.k", RightCol: "E.k"})
		if err != nil {
			t.Fatal(err)
		}
		if got := drainBatches(t, j2); len(got) != 0 {
			t.Fatalf("budget=%d: empty probe side produced %d rows", budget, len(got))
		}
		ClosePlan(j)
		ClosePlan(j2)
	}
}

// TestGovernorPeakWithinBudget drives a join whose working set is 4x the
// budget and asserts the Governor's accounted peak never exceeds the budget:
// the join sheds state instead of overcommitting. Batches are kept small
// enough that no single reservation exceeds the whole budget (which would
// trigger the documented Force escape hatch).
func TestGovernorPeakWithinBudget(t *testing.T) {
	l, r := spillJoinTables(t, 4096, 4096)
	ws := tableBytes(l)
	budget := ws / 4
	gov := newGov(t, budget)
	j, err := NewVecHashJoinMem(NewBatchScanSize(l, 64), NewBatchScanSize(r, 64), 64, gov,
		JoinCond{LeftCol: "L.k", RightCol: "R.k"})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		b, ok := j.NextBatch()
		if !ok {
			break
		}
		n += b.NumRows()
	}
	if n == 0 {
		t.Fatal("join produced nothing")
	}
	if peak := gov.Peak(); peak > budget {
		t.Fatalf("join: accounted peak %d exceeds budget %d", peak, budget)
	}
	ClosePlan(j)
}
