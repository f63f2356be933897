package exec

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/mem"
)

// pipelineTable builds a single table wide enough to span many morsels at a
// small batch size.
func pipelineTable(t *testing.T, rows int) *data.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	tab := data.MustNewTable("P", "k", "v", "w")
	tab.Grow(rows)
	for i := 0; i < rows; i++ {
		if err := tab.AppendRow(rng.Int63n(1000), int64(i), rng.Int63n(50)); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// poolWidths is the property matrix of the determinism suite.
var poolWidths = []int{1, 2, 4, 8}

// TestPipelineFilterProjectBitIdentical drives a scan → filter → filter chain
// through NewPipeline at every pool width and asserts the emitted row stream
// equals the serial chain's bit for bit.
func TestPipelineFilterProjectBitIdentical(t *testing.T) {
	tab := pipelineTable(t, 10_000)
	const batch = 128
	chain := func(src BatchOperator) (BatchOperator, error) {
		return NewBatchFilter(NewBatchFilter(src, rangePred(0, 100, 800)), rangePred(2, 10, 40)), nil
	}
	serial := func() BatchOperator {
		op, err := chain(NewBatchScanSize(tab, batch))
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	ref := drainBatches(t, serial())
	if len(ref) == 0 {
		t.Fatal("reference chain is empty")
	}
	for _, w := range poolWidths {
		pool := NewPool(w)
		op := NewPipeline(pool, tab, w, batch, chain, serial(), nil)
		if got := drainBatches(t, op); !reflect.DeepEqual(got, ref) {
			t.Fatalf("width %d: pipeline diverges from serial (%d vs %d rows)", w, len(got), len(ref))
		}
		// Reset must replay the identical stream.
		op.Reset()
		if got := drainBatches(t, op); !reflect.DeepEqual(got, ref) {
			t.Fatalf("width %d: Reset replay diverges", w)
		}
		pool.Close()
	}
}

// TestPlanBatchPipelineMatrix is the end-to-end determinism property: a
// 3-way chain join planned at pool widths {1,2,4,8} × budgets {unlimited,
// quarter working set} must emit the serial plan's row stream bit for bit —
// including when the budget pushes a join build into grace mode, where the
// pipeline falls back to the serial chain.
func TestPlanBatchPipelineMatrix(t *testing.T) {
	cat, e := chainCatalog(4_000, 400)
	refOp, err := PlanBatch(cat, e, Options{Parallelism: 1, BatchSize: 128})
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
	for _, budget := range []int64{0, ws / 4} {
		for _, w := range poolWidths {
			var gov *mem.Governor
			if budget > 0 {
				gov = mem.NewGovernor(budget)
			}
			pool := NewPool(w)
			op, err := PlanBatch(cat, e, Options{Parallelism: w, BatchSize: 128, Gov: gov, Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			if got := drainBatches(t, op); !reflect.DeepEqual(got, ref) {
				t.Fatalf("budget=%d width=%d: plan diverges from serial (%d vs %d rows)",
					budget, w, len(got), len(ref))
			}
			op.Reset()
			if got := drainBatches(t, op); !reflect.DeepEqual(got, ref) {
				t.Fatalf("budget=%d width=%d: Reset replay diverges", budget, w)
			}
			pool.Close()
			if err := gov.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPipelineGraceFallback forces the join build side past a tiny budget so
// it spills into grace partitioning, and asserts the pipeline detects the
// un-cloneable stage, falls back to the serial chain, and still emits the
// reference stream.
func TestPipelineGraceFallback(t *testing.T) {
	cat, e := chainCatalog(4_000, 400)
	refOp, err := PlanBatch(cat, e, Options{Parallelism: 1, BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	ref := drainBatches(t, refOp)
	gov := mem.NewGovernor(1)
	op, err := PlanBatch(cat, e, Options{Parallelism: 4, BatchSize: 128, Gov: gov})
	if err != nil {
		t.Fatal(err)
	}
	pl, ok := op.(*Pipeline)
	if !ok {
		t.Fatalf("plan at width 4 should be a *Pipeline, got %T", op)
	}
	if got := drainBatches(t, op); !reflect.DeepEqual(got, ref) {
		t.Fatalf("grace fallback diverges from serial (%d vs %d rows)", len(got), len(ref))
	}
	if !pl.fallback {
		t.Fatal("1-byte budget must force the grace fallback")
	}
	if err := gov.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestVecHashJoinWidthBudgetMatrix extends the spill-equivalence property to
// the full width matrix: build parallelism {1,2,4,8} × budgets {unlimited,
// quarter working set} must reproduce the serial in-memory join bit for bit
// (the quarter budget pushes the build into grace partitioning).
func TestVecHashJoinWidthBudgetMatrix(t *testing.T) {
	l, r := spillJoinTables(t, 3000, 4000)
	cond := JoinCond{LeftCol: "L.k", RightCol: "R.k"}
	refJ, err := NewVecHashJoinSize(NewBatchScan(l), NewBatchScan(r), 1, 0, cond)
	if err != nil {
		t.Fatal(err)
	}
	ref := drainBatches(t, refJ)
	for _, budget := range []int64{0, tableBytes(l) / 4} {
		for _, w := range poolWidths {
			gov := mem.NewGovernor(budget)
			j, err := NewVecHashJoinMem(NewBatchScan(l), NewBatchScan(r), w, 0, gov, cond)
			if err != nil {
				t.Fatal(err)
			}
			if got := drainBatches(t, j); !reflect.DeepEqual(got, ref) {
				t.Fatalf("budget=%d width=%d: join diverges", budget, w)
			}
			if budget > 0 && j.grace == nil {
				t.Fatalf("budget=%d width=%d: quarter budget did not spill", budget, w)
			}
			if err := gov.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBatchSortParallelGatherMatchesReference exercises the pool-parallel
// gather path (input larger than one gather block) against the spilled merge
// path and the serial reference.
func TestBatchSortParallelGatherMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := data.MustNewTable("G", "k", "v")
	n := gatherBlockRows + 1234
	tab.Grow(n)
	for i := 0; i < n; i++ {
		if err := tab.AppendRow(rng.Int63n(5000), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(gov *mem.Governor) *BatchSort {
		s, err := NewBatchSortMem(NewBatchScan(tab), "G.k", 0, gov)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := drainBatches(t, mk(nil)) // in-memory path: pool-parallel gather
	for i := 1; i < len(ref); i++ {
		if ref[i][0] < ref[i-1][0] {
			t.Fatalf("gather output not sorted at %d", i)
		}
		if ref[i][0] == ref[i-1][0] && ref[i][1] < ref[i-1][1] {
			t.Fatalf("gather output not stable at %d", i)
		}
	}
	ws := int64(n) * 2 * 8
	gov := mem.NewGovernor(ws / 4)
	if got := drainBatches(t, mk(gov)); !reflect.DeepEqual(got, ref) {
		t.Fatal("spilled sort diverges from parallel-gather sort")
	}
	if err := gov.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchScanRange: the morsel source must cover exactly [lo, hi) and
// Reset must rewind to lo, not 0.
func TestBatchScanRange(t *testing.T) {
	tab := pipelineTable(t, 1000)
	s := NewBatchScanRange(tab, 300, 700, 64)
	rows := drainBatches(t, s)
	if len(rows) != 400 {
		t.Fatalf("range scan returned %d rows, want 400", len(rows))
	}
	if rows[0][1] != 300 || rows[399][1] != 699 {
		t.Fatalf("range scan bounds wrong: first v=%d last v=%d", rows[0][1], rows[399][1])
	}
	s.Reset()
	if again := drainBatches(t, s); !reflect.DeepEqual(again, rows) {
		t.Fatal("Reset did not rewind to the range start")
	}
}
