package exec

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/query"
)

func makeTable(t *testing.T, name string, cols []string, rows [][]int64) *data.Table {
	t.Helper()
	tab := data.MustNewTable(name, cols...)
	for _, r := range rows {
		if err := tab.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func sortRows(rows [][]int64) {
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
}

// rel is a fully drained operator: the input and output of the reference
// join, so references nest the way plans do.
type rel struct {
	cols []string
	rows [][]int64
}

// scanRel drains a whole-table scan.
func scanRel(t testing.TB, tab *data.Table) rel {
	t.Helper()
	op := NewBatchScan(tab)
	return rel{cols: op.Columns(), rows: drainBatches(t, op)}
}

// nestedLoop is the brute-force reference join every join test compares
// against. It is right-major: for each right row in input order it emits
// left-row ++ right-row for every matching left row in input order — the
// emission order VecHashJoin (build left, probe right) must reproduce.
func nestedLoop(t testing.TB, left, right rel, conds ...JoinCond) rel {
	t.Helper()
	if len(conds) == 0 {
		t.Fatal("nested loop join needs at least one condition")
	}
	lIdx, rIdx := make([]int, len(conds)), make([]int, len(conds))
	for i, c := range conds {
		var err error
		if lIdx[i], err = columnIndex(left.cols, c.LeftCol); err != nil {
			t.Fatal(err)
		}
		if rIdx[i], err = columnIndex(right.cols, c.RightCol); err != nil {
			t.Fatal(err)
		}
	}
	out := rel{cols: append(append([]string(nil), left.cols...), right.cols...)}
	for _, r := range right.rows {
	nextLeft:
		for _, l := range left.rows {
			for c := range conds {
				if l[lIdx[c]] != r[rIdx[c]] {
					continue nextLeft
				}
			}
			out.rows = append(out.rows, append(append([]int64(nil), l...), r...))
		}
	}
	return out
}

// allColumns is every qualified column of the expression's tables: the
// request that yields the unprojected plan, the oracle of the projection
// tests.
func allColumns(t testing.TB, cat *data.Catalog, e *query.Expr) []string {
	t.Helper()
	var cols []string
	for _, name := range e.Tables() {
		tab, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range tab.ColumnNames() {
			cols = append(cols, name+"."+c)
		}
	}
	return cols
}

func TestFilterAndProject(t *testing.T) {
	tab := makeTable(t, "R", []string{"x", "a"}, [][]int64{{1, 10}, {20, 20}, {3, 30}})
	f, err := equalityFilter(NewBatchScan(tab), "R.x", "R.a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Columns(), []string{"R.x", "R.a"}) {
		t.Errorf("filter columns = %v", f.Columns())
	}
	rows := drainBatches(t, f)
	if !reflect.DeepEqual(rows, [][]int64{{20, 20}}) {
		t.Errorf("filtered = %v", rows)
	}
	if _, err := equalityFilter(NewBatchScan(tab), "R.zz", "R.a"); err == nil {
		t.Error("bad column: want error")
	}
}

func TestHashJoinSmall(t *testing.T) {
	r := makeTable(t, "R", []string{"x"}, [][]int64{{1}, {2}, {2}, {5}})
	s := makeTable(t, "S", []string{"y", "a"}, [][]int64{{2, 100}, {3, 200}, {2, 300}, {1, 400}})
	j, err := NewVecHashJoinSize(NewBatchScan(r), NewBatchScan(s), 0, JoinCond{LeftCol: "R.x", RightCol: "S.y"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j.Columns(), []string{"R.x", "S.y", "S.a"}) {
		t.Errorf("columns = %v", j.Columns())
	}
	rows := drainBatches(t, j)
	sortRows(rows)
	want := [][]int64{
		{1, 1, 400},
		{2, 2, 100}, {2, 2, 100},
		{2, 2, 300}, {2, 2, 300},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("join = %v, want %v", rows, want)
	}
}

// randomJoinInputs builds two random tables for join equivalence testing.
func randomJoinInputs(seed int64, n1, n2, domain int) (*data.Table, *data.Table) {
	rng := rand.New(rand.NewSource(seed))
	r := data.MustNewTable("R", "x", "p")
	for i := 0; i < n1; i++ {
		r.AppendRow(rng.Int63n(int64(domain)), rng.Int63n(100))
	}
	s := data.MustNewTable("S", "y", "q")
	for i := 0; i < n2; i++ {
		s.AppendRow(rng.Int63n(int64(domain)), rng.Int63n(100))
	}
	return r, s
}

// TestJoinEquivalence: the hash join and the nested-loop reference must
// produce identical result multisets.
func TestJoinEquivalence(t *testing.T) {
	cond := JoinCond{LeftCol: "R.x", RightCol: "S.y"}
	for seed := int64(0); seed < 5; seed++ {
		r, s := randomJoinInputs(seed, 200, 150, 20)
		hj, err := NewVecHashJoinSize(NewBatchScan(r), NewBatchScan(s), 0, cond)
		if err != nil {
			t.Fatal(err)
		}
		h := drainBatches(t, hj)
		n := nestedLoop(t, scanRel(t, r), scanRel(t, s), cond).rows
		sortRows(h)
		sortRows(n)
		if !reflect.DeepEqual(h, n) {
			t.Fatalf("seed %d: hash join != nested loop (%d vs %d rows)", seed, len(h), len(n))
		}
	}
}

// Property: the two joins agree on arbitrary small inputs.
func TestJoinEquivalenceQuick(t *testing.T) {
	cond := JoinCond{LeftCol: "R.x", RightCol: "S.y"}
	f := func(xs, ys []uint8) bool {
		r := data.MustNewTable("R", "x")
		for _, v := range xs {
			r.AppendRow(int64(v % 8))
		}
		s := data.MustNewTable("S", "y")
		for _, v := range ys {
			s.AppendRow(int64(v % 8))
		}
		hj, err := NewVecHashJoinSize(NewBatchScan(r), NewBatchScan(s), 0, cond)
		if err != nil {
			return false
		}
		h := drainBatches(t, hj)
		n := nestedLoop(t, scanRel(t, r), scanRel(t, s), cond).rows
		sortRows(h)
		sortRows(n)
		return reflect.DeepEqual(h, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPlanAndMaterializeChain(t *testing.T) {
	cat := data.NewCatalog()
	cat.MustAdd(makeTable(t, "R", []string{"x"}, [][]int64{{1}, {2}}))
	cat.MustAdd(makeTable(t, "S", []string{"y", "z", "a"}, [][]int64{{1, 7, 10}, {2, 8, 20}, {2, 7, 30}}))
	cat.MustAdd(makeTable(t, "T", []string{"w", "b"}, [][]int64{{7, 100}, {7, 200}, {8, 300}}))
	e, err := query.Chain([]string{"R", "S", "T"}, []string{"x", "z"}, []string{"y", "w"})
	if err != nil {
		t.Fatal(err)
	}
	card, err := Cardinality(cat, e)
	if err != nil {
		t.Fatal(err)
	}
	// R(1)-S(1,7,10)-T(7,*): 2 rows; R(2)-S(2,8,20)-T(8,300): 1; R(2)-S(2,7,30)-T(7,*): 2.
	if card != 5 {
		t.Errorf("cardinality = %d, want 5", card)
	}
	vals, err := AttrValues(cat, e, "S", "a")
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	if !reflect.DeepEqual(vals, []int64{10, 10, 20, 30, 30}) {
		t.Errorf("S.a values = %v", vals)
	}
	n, err := RangeCardinality(cat, e, "S", "a", 15, 35)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("range cardinality = %d, want 3", n)
	}
	op, err := PlanBatch(cat, e, allColumns(t, cat, e), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rows := drainBatches(t, op); len(rows) != 5 {
		t.Errorf("plan rows = %d", len(rows))
	}
	if _, err := columnIndex(op.Columns(), "S.a"); err != nil {
		t.Errorf("plan columns = %v", op.Columns())
	}
}

func TestPlanBaseTable(t *testing.T) {
	cat := data.NewCatalog()
	cat.MustAdd(makeTable(t, "R", []string{"x"}, [][]int64{{1}, {2}}))
	e, err := query.NewBaseExpr("R")
	if err != nil {
		t.Fatal(err)
	}
	card, err := Cardinality(cat, e)
	if err != nil {
		t.Fatal(err)
	}
	if card != 2 {
		t.Errorf("cardinality = %d", card)
	}
}

func TestPlanMultiPredicate(t *testing.T) {
	cat := data.NewCatalog()
	cat.MustAdd(makeTable(t, "R", []string{"w", "y"}, [][]int64{{1, 5}, {1, 6}, {2, 5}}))
	cat.MustAdd(makeTable(t, "S", []string{"x", "z"}, [][]int64{{1, 5}, {1, 7}, {2, 5}}))
	e, err := query.NewExpr(
		query.JoinPred{LeftTable: "R", LeftAttr: "w", RightTable: "S", RightAttr: "x"},
		query.JoinPred{LeftTable: "R", LeftAttr: "y", RightTable: "S", RightAttr: "z"},
	)
	if err != nil {
		t.Fatal(err)
	}
	card, err := Cardinality(cat, e)
	if err != nil {
		t.Fatal(err)
	}
	// Matches: (1,5)-(1,5) and (2,5)-(2,5).
	if card != 2 {
		t.Errorf("multi-predicate cardinality = %d, want 2", card)
	}
}

func TestPlanErrors(t *testing.T) {
	cat := data.NewCatalog()
	cat.MustAdd(makeTable(t, "R", []string{"x"}, nil))
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	if _, err := PlanBatch(cat, e, nil, Options{}); err == nil {
		t.Error("missing table S: want error")
	}
	if _, err := AttrValues(cat, e, "S", "a"); err == nil {
		t.Error("AttrValues with missing table: want error")
	}
}
