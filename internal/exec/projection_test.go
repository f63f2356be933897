package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/query"
)

// chainCatalogN is an n-table chain T1 ⋈ T2 ⋈ ... ⋈ Tn on Ti.jnext =
// T(i+1).jprev, each table carrying a payload column a besides its join
// keys, so a projected plan has columns to drop at every operator.
func chainCatalogN(n, rows int, domain int64) (*data.Catalog, *query.Expr) {
	rng := rand.New(rand.NewSource(int64(n)))
	cat := data.NewCatalog()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("T%d", i+1)
		var cols []string
		if i > 0 {
			cols = append(cols, "jprev")
		}
		if i < n-1 {
			cols = append(cols, "jnext")
		}
		cols = append(cols, "a")
		tab := data.MustNewTable(names[i], cols...)
		row := make([]int64, len(cols))
		for r := 0; r < rows; r++ {
			for c := range row {
				row[c] = rng.Int63n(domain)
			}
			tab.AppendRow(row...)
		}
		cat.MustAdd(tab)
	}
	left, right := make([]string, n-1), make([]string, n-1)
	for i := range left {
		left[i], right[i] = "jnext", "jprev"
	}
	e, err := query.Chain(names, left, right)
	if err != nil {
		panic(err)
	}
	return cat, e
}

// TestPlanProjection compares projected plans against the all-columns
// oracle on chains of 2-4 tables, a two-predicate plan whose second
// predicate is an equality filter, and a base table: for every target column
// (join keys and first-table columns included), at budgets {unlimited,
// quarter, a fortieth of the largest table, 1 byte} and batch sizes
// {adaptive, 128}, AttrValues, RangeCardinality and Cardinality must equal
// the oracle (sorted under a budget), a plan's columns must be exactly the
// requested ones, no operator may carry a column that is neither requested
// nor named by a predicate, and ClosePlan must return every reserved byte.
func TestPlanProjection(t *testing.T) {
	for n := 2; n <= 4; n++ {
		cat, e := chainCatalogN(n, 300, 150)
		t.Run(fmt.Sprintf("chain%d", n), func(t *testing.T) { checkProjection(t, cat, e) })
	}

	r, s, conds := randomMultiCondInputs(5)
	multi := data.NewCatalog()
	multi.MustAdd(r)
	multi.MustAdd(s)
	var preds []query.JoinPred
	for _, c := range conds {
		lt, la, _ := strings.Cut(c.LeftCol, ".")
		rt, ra, _ := strings.Cut(c.RightCol, ".")
		preds = append(preds, query.JoinPred{LeftTable: lt, LeftAttr: la, RightTable: rt, RightAttr: ra})
	}
	e, err := query.NewExpr(preds...)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("multipred", func(t *testing.T) { checkProjection(t, multi, e) })

	base, err := query.NewBaseExpr("R")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("base", func(t *testing.T) { checkProjection(t, multi, base) })
}

func checkProjection(t *testing.T, cat *data.Catalog, e *query.Expr) {
	all := allColumns(t, cat, e)
	oracle, err := PlanBatch(cat, e, all, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := drainBatches(t, oracle)
	refCols := oracle.Columns() // plan order, not all's
	ClosePlan(oracle)
	if len(ref) == 0 {
		t.Fatal("oracle plan is empty; the test data is broken")
	}
	predCols := map[string]bool{}
	for _, p := range e.Joins() {
		predCols[p.LeftTable+"."+p.LeftAttr] = true
		predCols[p.RightTable+"."+p.RightAttr] = true
	}
	var ws int64
	for _, name := range e.Tables() {
		tab, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = max(ws, tableBytes(tab))
	}
	for _, budget := range []int64{0, ws / 4, ws / 40, 1} {
		for _, size := range []int{0, 128} {
			gov := newGov(t, budget)
			opts := Options{BatchSize: size, Gov: gov}
			where := fmt.Sprintf("budget=%d batch=%d", budget, size)
			card, err := CardinalityOpts(cat, e, opts)
			if err != nil {
				t.Fatal(err)
			}
			if card != int64(len(ref)) {
				t.Fatalf("%s: Cardinality = %d, oracle %d", where, card, len(ref))
			}
			for ci, col := range refCols {
				want := make([]int64, len(ref))
				for i, row := range ref {
					want[i] = row[ci]
				}
				tab, attr, _ := strings.Cut(col, ".")
				got, err := AttrValuesOpts(cat, e, tab, attr, opts)
				if err != nil {
					t.Fatal(err)
				}
				if budget > 0 {
					slices.Sort(got)
					slices.Sort(want)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: AttrValues(%s) differs from the oracle (%d vs %d values)", where, col, len(got), len(want))
				}
				sorted := slices.Clone(want)
				slices.Sort(sorted)
				lo, hi := sorted[len(sorted)/4], sorted[len(sorted)*3/4]
				var inRange int64
				for _, v := range want {
					if v >= lo && v <= hi {
						inRange++
					}
				}
				n, err := RangeCardinalityOpts(cat, e, tab, attr, lo, hi, opts)
				if err != nil {
					t.Fatal(err)
				}
				if n != inRange {
					t.Fatalf("%s: RangeCardinality(%s in [%d,%d]) = %d, oracle %d", where, col, lo, hi, n, inRange)
				}
				op, err := PlanBatch(cat, e, []string{col}, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkPlanColumns(t, op, []string{col}, predCols, where)
				ClosePlan(op)
			}
			checkProjectedPlan(t, cat, e, []string{all[len(all)-1], all[0]}, refCols, ref, predCols, opts, where)
			checkProjectedPlan(t, cat, e, nil, refCols, ref, predCols, opts, where)
			if used := gov.Used(); used != 0 {
				t.Fatalf("%s: %d bytes still reserved after ClosePlan", where, used)
			}
		}
	}
}

// checkProjectedPlan plans the request, checks its columns and operators,
// and compares its rows with the oracle's projected onto the request.
func checkProjectedPlan(t *testing.T, cat *data.Catalog, e *query.Expr, req, refCols []string, ref [][]int64,
	predCols map[string]bool, opts Options, where string) {
	t.Helper()
	op, err := PlanBatch(cat, e, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ClosePlan(op)
	checkPlanColumns(t, op, req, predCols, where)
	got := op.Columns()
	idx := make([]int, len(got))
	for i, c := range got {
		if idx[i], err = columnIndex(refCols, c); err != nil {
			t.Fatal(err)
		}
	}
	want := make([][]int64, len(ref))
	for r, row := range ref {
		want[r] = make([]int64, len(idx))
		for i, c := range idx {
			want[r][i] = row[c]
		}
	}
	rows := drainBatches(t, op)
	if !sameJoinRows(opts.Gov.Budget(), rows, want) {
		t.Fatalf("%s: plan for %v differs from the oracle (%d vs %d rows)", where, req, len(rows), len(want))
	}
}

// checkPlanColumns checks that a plan's columns are exactly the requested
// set and that none of its operators carries a column that is neither
// requested nor named by a predicate.
func checkPlanColumns(t *testing.T, op BatchOperator, req []string, predCols map[string]bool, where string) {
	t.Helper()
	if got := op.Columns(); !sameSet(got, req) {
		t.Fatalf("%s: plan for %v has columns %v", where, req, got)
	}
	allowed := map[string]bool{}
	for c := range predCols {
		allowed[c] = true
	}
	for _, c := range req {
		allowed[c] = true
	}
	checkOperatorColumns(t, op, allowed, where)
}

// checkOperatorColumns walks a plan and fails if any operator emits a column
// outside allowed: the requested columns and the predicate columns.
func checkOperatorColumns(t *testing.T, op BatchOperator, allowed map[string]bool, where string) {
	t.Helper()
	for _, c := range op.Columns() {
		if !allowed[c] {
			t.Fatalf("%s: %T carries %s, which is neither requested nor a predicate column", where, op, c)
		}
	}
	switch o := op.(type) {
	case *VecHashJoin:
		checkOperatorColumns(t, o.left, allowed, where)
		checkOperatorColumns(t, o.right, allowed, where)
	case *BatchFilter:
		checkOperatorColumns(t, o.in, allowed, where)
	case *batchProject:
		checkOperatorColumns(t, o.in, allowed, where)
	}
}

func sameSet(a, b []string) bool {
	x, y := slices.Clone(a), slices.Clone(b)
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}
