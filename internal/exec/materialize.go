package exec

import (
	"fmt"
	"maps"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/query"
)

// Options parameterizes plan execution.
type Options struct {
	// Parallelism is ignored: every plan runs on the calling goroutine, and
	// parallelism lives in the shared scans of the sit package. The field
	// remains only for the one caller in the lifecycle benchmark and goes
	// when that benchmark retires its width measurement.
	Parallelism int
	// BatchSize overrides the rows-per-batch granularity. 0 picks an adaptive
	// size from the widest projected operator output (AdaptiveBatchSize), so
	// wide join outputs stay inside L2. No production caller sets it: it is the
	// executor tests' seam for forcing many small batches.
	BatchSize int
	// Gov, when non-nil, budgets the plan's operator memory: hash-join build
	// sides reserve through it and spill into grace partitions when denied.
	// A plan yields the same multiset of rows at any budget; once a join
	// spills, their order is unspecified.
	Gov *mem.Governor
}

// PlanBatch builds a vectorized operator tree evaluating the generating
// expression with hash joins: tables are joined in a connectivity-preserving
// order starting from the expression's first table, so every join has at
// least one applicable predicate. The plan's output columns are exactly the
// qualified names in cols ("R.x"), in plan order; cols may be empty when
// only rows are counted. The plan projects as it goes: each scan serves only
// the columns of its table that are requested or named in a join predicate,
// and each join emits only the requested columns and those a later join or
// equality filter still reads, so batch sizes follow the widest projected
// operator. Asking for every column of every table yields the unprojected
// plan. The plan runs on the goroutine that drains it.
//
// Row order is fixed without a budget and unspecified under one (see
// Options.Gov). Every consumer is order-insensitive: AttrValues feeds
// histogram builders and ground-truth tables that sort their input, and
// Cardinality and RangeCardinality count.
func PlanBatch(cat *data.Catalog, e *query.Expr, cols []string, opts Options) (BatchOperator, error) {
	tables := e.Tables()
	tabs := make(map[string]*data.Table, len(tables))
	var all []string             // every qualified column, in table order
	owner := map[string]string{} // qualified column -> table
	for _, name := range tables {
		t, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		tabs[name] = t
		for _, c := range t.ColumnNames() {
			all = append(all, name+"."+c)
			owner[name+"."+c] = name
		}
	}
	want := make(map[string]bool, len(cols))
	for _, c := range cols {
		if _, ok := owner[c]; !ok {
			return nil, fmt.Errorf("exec: no column %q in %s", c, e.String())
		}
		want[c] = true
	}
	steps, err := planSteps(tables[0], e)
	if err != nil {
		return nil, err
	}

	// keep[k] is what step k's output must carry: the requested columns and
	// every column a later step's predicate names.
	keep := make([]map[string]bool, len(steps))
	next := want
	for k := len(steps) - 1; k >= 0; k-- {
		keep[k] = next
		next = maps.Clone(next)
		next[steps[k].probeCol] = true
		next[steps[k].buildCol] = true
	}
	// A scan serves what its table's share of next holds: the requested
	// columns and every join-predicate column.
	scanCols := func(name string) []string {
		var out []string
		for _, c := range tabs[name].ColumnNames() {
			if next[name+"."+c] {
				out = append(out, c)
			}
		}
		return out
	}

	if opts.BatchSize <= 0 {
		// Size batches from the widest operator output: a scan, or a join
		// carrying the kept columns of every table joined so far.
		width := len(scanCols(tables[0]))
		joined := map[string]bool{tables[0]: true}
		for k, s := range steps {
			if s.filter {
				continue
			}
			joined[s.table] = true
			w := 0
			for _, c := range all {
				if keep[k][c] && joined[owner[c]] {
					w++
				}
			}
			width = max(width, w, len(scanCols(s.table)))
		}
		opts.BatchSize = AdaptiveBatchSize(width)
	}

	var root BatchOperator
	if root, err = newBatchScan(tabs[tables[0]], scanCols(tables[0]), opts.BatchSize); err != nil {
		return nil, err
	}
	for k, s := range steps {
		if s.filter {
			// Both sides already joined: an extra predicate between an
			// already-connected table pair.
			f, err := equalityFilter(root, s.probeCol, s.buildCol)
			if err != nil {
				return nil, err
			}
			root = f
			continue
		}
		// Build on the new base table, probe with the accumulated
		// intermediate result.
		build, err := newBatchScan(tabs[s.table], scanCols(s.table), opts.BatchSize)
		if err != nil {
			return nil, err
		}
		j, err := newVecHashJoin(build, root, keep[k], opts.BatchSize, opts.Gov,
			[]JoinCond{{LeftCol: s.buildCol, RightCol: s.probeCol}})
		if err != nil {
			return nil, err
		}
		root = j
	}
	if in := root.Columns(); len(in) > len(want) {
		// A final equality filter read columns nobody requested.
		p := &batchProject{in: root}
		for i, c := range in {
			if want[c] {
				p.idx = append(p.idx, i)
				p.cols = append(p.cols, c)
			}
		}
		p.out.Cols = make([][]int64, len(p.idx))
		root = p
	}
	return root, nil
}

// planStep is one predicate of a plan, in application order: a hash join
// that builds on a new table and probes with the accumulated result, or an
// equality filter between two already-joined tables.
type planStep struct {
	filter             bool
	table              string // the join's new (build) table
	buildCol, probeCol string // qualified; for a filter, the two compared columns
}

// planSteps orders the expression's predicates so every join connects a new
// table to the tables joined so far, starting from first.
func planSteps(first string, e *query.Expr) ([]planStep, error) {
	joined := map[string]bool{first: true}
	remaining := append([]query.JoinPred(nil), e.Joins()...)
	var steps []planStep
	for len(remaining) > 0 {
		progress := false
		for i, p := range remaining {
			lIn, rIn := joined[p.LeftTable], joined[p.RightTable]
			if !lIn && !rIn {
				continue
			}
			s := planStep{
				filter:   lIn && rIn,
				table:    p.RightTable,
				probeCol: p.LeftTable + "." + p.LeftAttr,
				buildCol: p.RightTable + "." + p.RightAttr,
			}
			if !lIn {
				s.table = p.LeftTable
				s.probeCol, s.buildCol = s.buildCol, s.probeCol
			}
			joined[s.table] = true
			steps = append(steps, s)
			remaining = append(remaining[:i], remaining[i+1:]...)
			progress = true
			break
		}
		if !progress {
			return nil, fmt.Errorf("exec: expression %q is not connected", e.String())
		}
	}
	return steps, nil
}

func equalityFilter(in BatchOperator, colA, colB string) (BatchOperator, error) {
	ia, err := columnIndex(in.Columns(), colA)
	if err != nil {
		return nil, err
	}
	ib, err := columnIndex(in.Columns(), colB)
	if err != nil {
		return nil, err
	}
	return NewBatchFilter(in, func(cols [][]int64, r int) bool { return cols[ia][r] == cols[ib][r] }), nil
}

// AttrValues evaluates the generating expression and returns the values of
// table.attr in its result — the exact distribution pi_{table.attr}(Q) a SIT
// approximates. This is the ground truth used by the accuracy experiments and
// by SweepExact's reference tests.
func AttrValues(cat *data.Catalog, e *query.Expr, table, attr string) ([]int64, error) {
	return AttrValuesOpts(cat, e, table, attr, Options{})
}

// AttrValuesOpts is AttrValues with explicit execution options.
func AttrValuesOpts(cat *data.Catalog, e *query.Expr, table, attr string, opts Options) ([]int64, error) {
	op, err := PlanBatch(cat, e, []string{table + "." + attr}, opts)
	if err != nil {
		return nil, err
	}
	defer ClosePlan(op)
	// Batches gather in chunks of fixed capacity that are never regrown, then
	// move once into a result of exact length.
	const chunkCap = 64 << 10
	var chunks [][]int64
	var cur []int64
	total := 0
	for {
		b, ok := op.NextBatch()
		if !ok {
			break
		}
		n := b.NumRows()
		if cap(cur)-len(cur) < n {
			chunks = append(chunks, cur)
			cur = make([]int64, 0, max(chunkCap, n))
		}
		col := b.Cols[0]
		if b.Sel == nil {
			cur = append(cur, col...)
		} else {
			for _, r := range b.Sel {
				cur = append(cur, col[r])
			}
		}
		total += n
	}
	if total == 0 {
		return nil, nil
	}
	out := make([]int64, 0, total)
	for _, c := range append(chunks, cur) {
		out = append(out, c...)
	}
	return out, nil
}

// Cardinality evaluates the expression and counts result rows.
func Cardinality(cat *data.Catalog, e *query.Expr) (int64, error) {
	return CardinalityOpts(cat, e, Options{})
}

// CardinalityOpts is Cardinality with explicit execution options.
func CardinalityOpts(cat *data.Catalog, e *query.Expr, opts Options) (int64, error) {
	op, err := PlanBatch(cat, e, nil, opts)
	if err != nil {
		return 0, err
	}
	defer ClosePlan(op)
	var n int64
	for {
		b, ok := op.NextBatch()
		if !ok {
			return n, nil
		}
		n += int64(b.NumRows())
	}
}

// RangeCardinality evaluates |sigma_{lo <= table.attr <= hi}(Q)| exactly.
func RangeCardinality(cat *data.Catalog, e *query.Expr, table, attr string, lo, hi int64) (int64, error) {
	return RangeCardinalityOpts(cat, e, table, attr, lo, hi, Options{})
}

// RangeCardinalityOpts is RangeCardinality with explicit execution options.
// The range predicate is counted directly over the target column of each
// batch — no filter operator, no selection vector, no row materialization.
func RangeCardinalityOpts(cat *data.Catalog, e *query.Expr, table, attr string, lo, hi int64, opts Options) (int64, error) {
	op, err := PlanBatch(cat, e, []string{table + "." + attr}, opts)
	if err != nil {
		return 0, err
	}
	defer ClosePlan(op)
	var n int64
	for {
		b, ok := op.NextBatch()
		if !ok {
			return n, nil
		}
		col := b.Cols[0]
		if b.Sel == nil {
			for _, v := range col {
				if v >= lo && v <= hi {
					n++
				}
			}
		} else {
			for _, r := range b.Sel {
				if v := col[r]; v >= lo && v <= hi {
					n++
				}
			}
		}
	}
}
