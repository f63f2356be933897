package exec

import (
	"fmt"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/query"
)

// Options parameterizes plan execution.
type Options struct {
	// Parallelism is the plan's pool width (see ResolveParallelism): 0 uses
	// one worker per CPU, 1 runs the untouched serial chain, n > 1 runs the
	// probe pipeline as n-wide morsel tasks and bounds the hash-join build
	// fan-out. Plan results (and therefore all derived quantities) are
	// identical at every level.
	Parallelism int
	// BatchSize overrides the rows-per-batch granularity. 0 picks an adaptive
	// size from the plan's total column width (AdaptiveBatchSize), so wide
	// join outputs stay inside L2. No production caller sets it: it is the
	// executor tests' seam for forcing many small batches.
	BatchSize int
	// Gov, when non-nil, budgets the plan's operator memory: hash-join build
	// sides and sort buffers reserve through it and spill (grace partitioning,
	// external merge sort) when denied, and the parallel pipeline's reorder
	// window is accounted against it. Results are identical at any budget.
	Gov *mem.Governor
	// Pool overrides the worker pool the plan forks onto; nil uses the
	// process-wide Default pool.
	Pool *Pool
}

// PlanBatch builds a vectorized operator tree evaluating the generating
// expression with hash joins: tables are joined in a connectivity-preserving
// order starting from the expression's first table, so every join has at
// least one applicable predicate. Output columns are qualified names ("R.x").
//
// At Parallelism != 1 the probe-side chain (scan of the first table, then
// every join probe and equality filter) runs as a morsel-driven Pipeline on
// the shared pool: each stage is recorded as a builder that re-instantiates
// it over a morsel's scan range (joins via ProbeClone, sharing one built
// hash table). The emitted row stream is bit-identical to the serial chain.
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
	// Per-morsel stage builders, recorded alongside the serial chain so the
	// Pipeline can re-instantiate the chain over each morsel's scan range.
	var stages []stageBuilder

	for len(remaining) > 0 {
		progress := false
		for i, p := range remaining {
			lIn, rIn := joined[p.LeftTable], joined[p.RightTable]
			switch {
			case lIn && rIn:
				// Both sides already joined: apply as a filter (extra
				// predicate between an already-connected table pair).
				lc, rc := p.LeftTable+"."+p.LeftAttr, p.RightTable+"."+p.RightAttr
				f, err := equalityFilter(root, lc, rc)
				if err != nil {
					return nil, err
				}
				root = f
				stages = append(stages, func(in BatchOperator) (BatchOperator, error) {
					return equalityFilter(in, lc, rc)
				})
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
				j, err := NewVecHashJoinMem(NewBatchScanSize(t, opts.BatchSize), root, opts.Parallelism,
					opts.BatchSize, opts.Gov, JoinCond{LeftCol: buildCol, RightCol: probeCol})
				if err != nil {
					return nil, err
				}
				root = j
				stages = append(stages, func(in BatchOperator) (BatchOperator, error) {
					return j.ProbeClone(in)
				})
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
	if width := ResolveParallelism(opts.Parallelism); width > 1 && len(stages) > 0 {
		build := func(src BatchOperator) (BatchOperator, error) {
			op := src
			for _, s := range stages {
				var err error
				if op, err = s(op); err != nil {
					return nil, err
				}
			}
			return op, nil
		}
		return NewPipeline(opts.Pool, first, width, opts.BatchSize, build, root, opts.Gov), nil
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
