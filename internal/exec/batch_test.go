package exec

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/query"
)

func drainBatches(t testing.TB, op BatchOperator) [][]int64 {
	t.Helper()
	var out [][]int64
	for {
		b, ok := op.NextBatch()
		if !ok {
			return out
		}
		n := b.NumRows()
		for i := 0; i < n; i++ {
			r := i
			if b.Sel != nil {
				r = int(b.Sel[i])
			}
			row := make([]int64, len(b.Cols))
			for c, col := range b.Cols {
				row[c] = col[r]
			}
			out = append(out, row)
		}
	}
}

func TestBatchScan(t *testing.T) {
	tab := data.MustNewTable("R", "x", "a")
	for i := int64(0); i < 2500; i++ {
		if err := tab.AppendRow(i, i*10); err != nil {
			t.Fatal(err)
		}
	}
	s := NewBatchScan(tab)
	if !reflect.DeepEqual(s.Columns(), []string{"R.x", "R.a"}) {
		t.Errorf("columns = %v", s.Columns())
	}
	var rows int
	var batches int
	for {
		b, ok := s.NextBatch()
		if !ok {
			break
		}
		batches++
		if b.Sel != nil {
			t.Fatal("scan batches must not carry a selection vector")
		}
		for i, v := range b.Cols[0] {
			if b.Cols[1][i] != v*10 {
				t.Fatalf("row %d: a = %d, want %d", rows+i, b.Cols[1][i], v*10)
			}
		}
		rows += b.NumRows()
	}
	if rows != 2500 {
		t.Errorf("rows = %d, want 2500", rows)
	}
	if batches != 3 { // 1024 + 1024 + 452
		t.Errorf("batches = %d, want 3", batches)
	}
}

// rangePred is the batch predicate lo <= cols[idx][r] <= hi.
func rangePred(idx int, lo, hi int64) func(cols [][]int64, r int) bool {
	return func(cols [][]int64, r int) bool { return cols[idx][r] >= lo && cols[idx][r] <= hi }
}

func TestBatchFilterAndProject(t *testing.T) {
	tab := makeTable(t, "R", []string{"x", "a"}, [][]int64{{1, 10}, {2, 20}, {3, 30}, {4, 40}})
	f := NewBatchFilter(NewBatchScan(tab), rangePred(1, 15, 35))
	rows := drainBatches(t, f)
	if !reflect.DeepEqual(rows, [][]int64{{2, 20}, {3, 30}}) {
		t.Errorf("filtered = %v", rows)
	}
	// A filter over a filter narrows the inner selection vector.
	f = NewBatchFilter(NewBatchScan(tab), rangePred(1, 15, 35))
	rows = drainBatches(t, NewBatchFilter(f, rangePred(0, 3, 4)))
	if !reflect.DeepEqual(rows, [][]int64{{3, 30}}) {
		t.Errorf("filtered through filter = %v", rows)
	}
}

// TestVecHashJoinBitIdentical: unbudgeted, the vectorized join must produce
// exactly the same output sequence (not just multiset) as the nested-loop
// reference, for single- and multi-condition joins. Under a budget of a
// fortieth of the build side (level-1 sub-partitioning) and of 1 byte
// (everything spills) it must produce the same multiset.
func TestVecHashJoinBitIdentical(t *testing.T) {
	r1, s1 := randomJoinInputs(3, 5000, 4000, 300)
	r2, s2, conds2 := randomMultiCondInputs(5)
	for _, in := range []struct {
		name  string
		r, s  *data.Table
		conds []JoinCond
	}{
		{"single", r1, s1, []JoinCond{{LeftCol: "R.x", RightCol: "S.y"}}},
		{"multi", r2, s2, conds2},
	} {
		want := nestedLoop(t, scanRel(t, in.r), scanRel(t, in.s), in.conds...).rows
		if len(want) == 0 {
			t.Fatalf("%s: reference join is empty; the test data is broken", in.name)
		}
		for _, budget := range []int64{0, tableBytes(in.r) / 40, 1} {
			gov := newGov(t, budget)
			vj, err := NewVecHashJoinMem(NewBatchScan(in.r), NewBatchScan(in.s), 0, gov, in.conds...)
			if err != nil {
				t.Fatal(err)
			}
			if got := drainBatches(t, vj); !sameJoinRows(budget, got, want) {
				t.Fatalf("%s budget %d: VecHashJoin differs from the nested-loop reference (%d vs %d rows)",
					in.name, budget, len(got), len(want))
			}
			if (budget > 0) != (vj.grace != nil) {
				t.Fatalf("%s budget %d: grace mode = %v", in.name, budget, vj.grace != nil)
			}
			ClosePlan(vj)
		}
	}
}

// TestVecHashJoinLongChain exercises a match chain longer than a batch, which
// must pause and resume across NextBatch calls.
func TestVecHashJoinLongChain(t *testing.T) {
	r := data.MustNewTable("R", "x", "p")
	for i := int64(0); i < 3000; i++ {
		if err := r.AppendRow(7, i); err != nil {
			t.Fatal(err)
		}
	}
	s := makeTable(t, "S", []string{"y"}, [][]int64{{7}, {8}, {7}})
	vj, err := NewVecHashJoinSize(NewBatchScan(r), NewBatchScan(s), 0, JoinCond{LeftCol: "R.x", RightCol: "S.y"})
	if err != nil {
		t.Fatal(err)
	}
	rows := drainBatches(t, vj)
	if len(rows) != 6000 {
		t.Fatalf("rows = %d, want 6000", len(rows))
	}
	// Matches stream in build order per probe row, twice.
	for i := 0; i < 3000; i++ {
		if rows[i][1] != int64(i) || rows[3000+i][1] != int64(i) {
			t.Fatalf("row %d: chain order broken: %v / %v", i, rows[i], rows[3000+i])
		}
	}
}

func TestVecHashJoinEmptyInputs(t *testing.T) {
	empty := data.MustNewTable("E", "x")
	full := makeTable(t, "F", []string{"y"}, [][]int64{{1}, {2}})
	j1, err := NewVecHashJoinSize(NewBatchScan(empty), NewBatchScan(full), 0, JoinCond{LeftCol: "E.x", RightCol: "F.y"})
	if err != nil {
		t.Fatal(err)
	}
	if rows := drainBatches(t, j1); len(rows) != 0 {
		t.Errorf("empty build side: %d rows", len(rows))
	}
	j2, err := NewVecHashJoinSize(NewBatchScan(full), NewBatchScan(empty), 0, JoinCond{LeftCol: "F.y", RightCol: "E.x"})
	if err != nil {
		t.Fatal(err)
	}
	if rows := drainBatches(t, j2); len(rows) != 0 {
		t.Errorf("empty probe side: %d rows", len(rows))
	}
	if _, err := NewVecHashJoinSize(NewBatchScan(full), NewBatchScan(empty), 0); err == nil {
		t.Error("no conditions: want error")
	}
	if _, err := NewVecHashJoinSize(NewBatchScan(full), NewBatchScan(empty), 0, JoinCond{LeftCol: "F.q", RightCol: "E.x"}); err == nil {
		t.Error("bad column: want error")
	}
}

// randomMultiCondInputs builds tables with duplicates on both sides, negative
// keys, and (sometimes) empty inputs, for multi-condition join testing.
func randomMultiCondInputs(seed int64) (*data.Table, *data.Table, []JoinCond) {
	rng := rand.New(rand.NewSource(seed))
	n1, n2 := rng.Intn(120), rng.Intn(120)
	if seed%7 == 0 {
		n1 = 0 // occasionally empty build side
	}
	if seed%11 == 0 {
		n2 = 0 // occasionally empty probe side
	}
	dom := int64(2 + rng.Intn(6))                           // tiny domains force duplicates
	draw := func() int64 { return rng.Int63n(2*dom) - dom } // negative and positive keys
	r := data.MustNewTable("R", "w", "y", "p")
	for i := 0; i < n1; i++ {
		r.AppendRow(draw(), draw(), rng.Int63n(50))
	}
	s := data.MustNewTable("S", "x", "z", "q")
	for i := 0; i < n2; i++ {
		s.AppendRow(draw(), draw(), rng.Int63n(50))
	}
	conds := []JoinCond{
		{LeftCol: "R.w", RightCol: "S.x"},
		{LeftCol: "R.y", RightCol: "S.z"},
	}
	return r, s, conds
}

// TestJoinPropertyMultiCond is the property test over the join
// implementations: on randomized multi-condition inputs (duplicates on both
// sides, negative keys, empty inputs) VecHashJoin and the nested-loop
// reference must produce identical sorted outputs.
func TestJoinPropertyMultiCond(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r, s, conds := randomMultiCondInputs(seed)
		want := nestedLoop(t, scanRel(t, r), scanRel(t, s), conds...).rows
		sortRows(want)
		vj, err := NewVecHashJoinSize(NewBatchScan(r), NewBatchScan(s), 0, conds...)
		if err != nil {
			t.Fatal(err)
		}
		vg := drainBatches(t, vj)
		sortRows(vg)
		if !reflect.DeepEqual(vg, want) {
			t.Fatalf("seed %d: VecHashJoin != nested loop (%d vs %d rows)", seed, len(vg), len(want))
		}
	}
}

// TestPlanBatchMatchesRowReference: the full batch plan must be row-for-row
// identical to a reference plan assembled from nested-loop joins in the same
// join order.
func TestPlanBatchMatchesRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cat := data.NewCatalog()
	r := data.MustNewTable("R", "x")
	for i := 0; i < 400; i++ {
		r.AppendRow(rng.Int63n(40))
	}
	s := data.MustNewTable("S", "y", "z", "a")
	for i := 0; i < 500; i++ {
		s.AppendRow(rng.Int63n(40), rng.Int63n(30), rng.Int63n(100))
	}
	u := data.MustNewTable("T", "w", "b")
	for i := 0; i < 300; i++ {
		u.AppendRow(rng.Int63n(30), rng.Int63n(100))
	}
	cat.MustAdd(r)
	cat.MustAdd(s)
	cat.MustAdd(u)
	e, err := query.Chain([]string{"R", "S", "T"}, []string{"x", "z"}, []string{"y", "w"})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same connectivity-preserving join order with nested
	// loops (build side left, probe side right).
	j1 := nestedLoop(t, scanRel(t, s), scanRel(t, r), JoinCond{LeftCol: "S.y", RightCol: "R.x"})
	want := nestedLoop(t, scanRel(t, u), j1, JoinCond{LeftCol: "T.w", RightCol: "S.z"}).rows

	op, err := PlanBatch(cat, e, allColumns(t, cat, e), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := drainBatches(t, op)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("batch plan output differs from nested-loop reference")
	}
}

// TestPlanBatchBudgetMatrix is the end-to-end spill property: a 3-way chain
// join planned under budgets {unlimited, quarter working set, a fortieth,
// 1 byte} must emit the unbudgeted plan's rows — the same stream without a
// budget, the same multiset once a join build goes into grace mode — and
// ClosePlan must return every reserved byte.
func TestPlanBatchBudgetMatrix(t *testing.T) {
	cat, e := chainCatalog(4_000, 400)
	refOp, err := PlanBatch(cat, e, allColumns(t, cat, e), Options{BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	ref := drainBatches(t, refOp)
	if len(ref) == 0 {
		t.Fatal("reference plan is empty")
	}
	t2, err := cat.Table("T2")
	if err != nil {
		t.Fatal(err)
	}
	ws := int64(t2.NumRows()) * int64(t2.NumCols()) * 8
	for _, budget := range []int64{0, ws / 4, ws / 40, 1} {
		op, err := PlanBatch(cat, e, allColumns(t, cat, e), Options{BatchSize: 128, Gov: newGov(t, budget)})
		if err != nil {
			t.Fatal(err)
		}
		if got := drainBatches(t, op); !sameJoinRows(budget, got, ref) {
			t.Fatalf("budget=%d: plan diverges from the unbudgeted plan (%d vs %d rows)",
				budget, len(got), len(ref))
		}
		ClosePlan(op)
	}
}

// TestRangeCardinalityOpts: the counting drain agrees with filtering.
func TestRangeCardinalityOpts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cat := data.NewCatalog()
	r := data.MustNewTable("R", "x")
	for i := 0; i < 300; i++ {
		r.AppendRow(rng.Int63n(25))
	}
	s := data.MustNewTable("S", "y", "a")
	for i := 0; i < 400; i++ {
		s.AppendRow(rng.Int63n(25), rng.Int63n(200))
	}
	cat.MustAdd(r)
	cat.MustAdd(s)
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	vals, err := AttrValues(cat, e, "S", "a")
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, v := range vals {
		if v >= 50 && v <= 120 {
			want++
		}
	}
	got, err := RangeCardinalityOpts(cat, e, "S", "a", 50, 120, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("range cardinality = %d, want %d", got, want)
	}
	card, err := Cardinality(cat, e)
	if err != nil {
		t.Fatal(err)
	}
	if card != int64(len(vals)) {
		t.Errorf("cardinality = %d, want %d", card, len(vals))
	}
}
