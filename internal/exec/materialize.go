package exec

import (
	"fmt"

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
	// size from the plan's total column width (AdaptiveBatchSize), so wide
	// join outputs stay inside L2. No production caller sets it: it is the
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
// least one applicable predicate. Output columns are qualified names ("R.x").
// The plan runs on the goroutine that drains it.
//
// Row order is fixed without a budget and unspecified under one (see
// Options.Gov). Every consumer is order-insensitive: AttrValues feeds
// histogram builders and ground-truth tables that sort their input, and
// Cardinality and RangeCardinality count.
func PlanBatch(cat *data.Catalog, e *query.Expr, opts Options) (BatchOperator, error) {
	tables := e.Tables()
	if opts.BatchSize <= 0 {
		// Size batches from the plan's total output width: every join in the
		// left-deep chain carries the accumulated columns of all tables
		// joined so far, so the final width is what must stay inside L2.
		width := 0
		for _, name := range tables {
			t, err := cat.Table(name)
			if err != nil {
				return nil, err
			}
			width += t.NumCols()
		}
		opts.BatchSize = AdaptiveBatchSize(width)
	}
	if len(tables) == 1 {
		t, err := cat.Table(tables[0])
		if err != nil {
			return nil, err
		}
		return NewBatchScanSize(t, opts.BatchSize), nil
	}
	joined := map[string]bool{}
	remaining := append([]query.JoinPred(nil), e.Joins()...)

	first, err := cat.Table(tables[0])
	if err != nil {
		return nil, err
	}
	var root BatchOperator = NewBatchScanSize(first, opts.BatchSize)
	joined[tables[0]] = true

	for len(remaining) > 0 {
		progress := false
		for i, p := range remaining {
			lIn, rIn := joined[p.LeftTable], joined[p.RightTable]
			switch {
			case lIn && rIn:
				// Both sides already joined: apply as a filter (extra
				// predicate between an already-connected table pair).
				f, err := equalityFilter(root, p.LeftTable+"."+p.LeftAttr, p.RightTable+"."+p.RightAttr)
				if err != nil {
					return nil, err
				}
				root = f
			case lIn || rIn:
				newTable := p.RightTable
				probeCol, buildCol := p.LeftTable+"."+p.LeftAttr, p.RightTable+"."+p.RightAttr
				if rIn {
					newTable = p.LeftTable
					probeCol, buildCol = p.RightTable+"."+p.RightAttr, p.LeftTable+"."+p.LeftAttr
				}
				t, err := cat.Table(newTable)
				if err != nil {
					return nil, err
				}
				// Build on the new base table, probe with the accumulated
				// intermediate result.
				j, err := NewVecHashJoinMem(NewBatchScanSize(t, opts.BatchSize), root,
					opts.BatchSize, opts.Gov, JoinCond{LeftCol: buildCol, RightCol: probeCol})
				if err != nil {
					return nil, err
				}
				root = j
				joined[newTable] = true
			default:
				continue
			}
			remaining = append(remaining[:i], remaining[i+1:]...)
			progress = true
			break
		}
		if !progress {
			return nil, fmt.Errorf("exec: expression %q is not connected", e.String())
		}
	}
	return root, nil
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
	op, err := PlanBatch(cat, e, opts)
	if err != nil {
		return nil, err
	}
	defer ClosePlan(op)
	idx, err := columnIndex(op.Columns(), table+"."+attr)
	if err != nil {
		return nil, err
	}
	var out []int64
	for {
		b, ok := op.NextBatch()
		if !ok {
			break
		}
		col := b.Cols[idx]
		if b.Sel == nil {
			out = append(out, col...)
		} else {
			for _, r := range b.Sel {
				out = append(out, col[r])
			}
		}
	}
	return out, nil
}

// Cardinality evaluates the expression and counts result rows.
func Cardinality(cat *data.Catalog, e *query.Expr) (int64, error) {
	return CardinalityOpts(cat, e, Options{})
}

// CardinalityOpts is Cardinality with explicit execution options.
func CardinalityOpts(cat *data.Catalog, e *query.Expr, opts Options) (int64, error) {
	op, err := PlanBatch(cat, e, opts)
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
	op, err := PlanBatch(cat, e, opts)
	if err != nil {
		return 0, err
	}
	defer ClosePlan(op)
	idx, err := columnIndex(op.Columns(), table+"."+attr)
	if err != nil {
		return 0, err
	}
	var n int64
	for {
		b, ok := op.NextBatch()
		if !ok {
			return n, nil
		}
		col := b.Cols[idx]
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
