package exec

import (
	"fmt"
	"sync"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/mem"
)

// Pipeline is the morsel-driven parallel executor: it splits a base table
// scan into fixed-size morsels (a few batches each), runs the whole operator
// chain — scan → filter → join-probe — over each morsel as one
// pool task, and re-emits the per-morsel outputs in morsel order. Because
// every stage in the chain is row-local (filters and probes map input rows
// to output rows independently of neighbouring morsels) and morsel
// boundaries depend only on the table size, the concatenated output is the
// serial chain's row stream, bit for bit, at every pool width.
//
// Sequence discipline: morsel seq numbers are claimed in ascending order
// under the pipeline mutex; completed outputs park in a bounded reorder
// window (ready[seq]) until the consumer's emit cursor reaches them. The
// consumer never blocks behind an unclaimed morsel — if emit itself is still
// unclaimed the consumer runs it inline, so a pool with zero free workers
// degrades to the serial execution rather than deadlocking.
//
// Pipeline breakers run exactly once, up front: start() builds the morsel-0
// stage chain on the consumer goroutine, which forces every hash-join build
// (ensureBuilt) before any helper spawns. A build side that spilled into
// grace partitioning cannot be probe-cloned (grace output order is a global
// property of one probe stream), so the pipeline detects that during the
// same morsel-0 construction and falls back to the untouched serial chain —
// still bit-identical, just narrower.

// morselBatches is the number of batches per morsel. The morsel size is a
// multiple of the batch size and independent of the worker count, so morsel
// boundaries — and therefore the emitted row stream — are identical at every
// pool width.
const morselBatches = 8

// pipelineWindowPerWorker scales the reorder window: up to window = 2×width
// morsels may be claimed ahead of the emit cursor, bounding buffered output
// (and its Governor reservation) while keeping every worker busy.
const pipelineWindowPerWorker = 2

// stageBuilder rebuilds the operator chain on top of a morsel's scan range.
// It returns an error when some stage cannot run per-morsel (a grace-mode
// join); the pipeline then falls back to its serial chain.
type stageBuilder func(src BatchOperator) (BatchOperator, error)

// Pipeline implements BatchOperator.
type Pipeline struct {
	pool       *Pool
	width      int
	table      *data.Table
	batchSize  int
	morselRows int
	nmorsels   int
	build      stageBuilder
	serial     BatchOperator
	grant      *mem.Grant

	mu       sync.Mutex
	cond     *sync.Cond
	started  bool
	fallback bool
	next     int // next morsel seq to claim
	emit     int // next morsel seq to emit
	window   int // max claimed-ahead morsels
	helpers  int
	inflight map[int]bool
	ready    map[int]morselOut
	pval     any // first morsel panic, replayed on the consumer

	cur    morselOut
	curSet bool
	pos    int
	out    Batch
}

// morselOut is one morsel's fully-materialized output (selection vectors
// already applied).
type morselOut struct {
	cols  [][]int64
	bytes int64
}

// NewPipeline wraps the serial operator chain in a morsel-driven parallel
// pipeline over table t. build must reconstruct the chain's per-morsel
// stages on top of a morsel scan; serial is the unmodified chain, used
// verbatim when the pipeline cannot help (width 1, single morsel) or cannot
// clone a stage (grace-mode join). gov, when non-nil, accounts the reorder
// window's buffered morsels. A nil pool means the process Default.
func NewPipeline(pool *Pool, t *data.Table, width, batchSize int, build stageBuilder, serial BatchOperator, gov *mem.Governor) BatchOperator {
	width = ResolveParallelism(width)
	if batchSize <= 0 {
		batchSize = AdaptiveBatchSize(len(serial.Columns()))
	}
	morselRows := morselBatches * batchSize
	nmorsels := (t.NumRows() + morselRows - 1) / morselRows
	if width <= 1 || nmorsels <= 1 {
		return serial
	}
	if pool == nil {
		pool = Default()
	}
	pl := &Pipeline{
		pool:       pool,
		width:      width,
		table:      t,
		batchSize:  batchSize,
		morselRows: morselRows,
		nmorsels:   nmorsels,
		build:      build,
		serial:     serial,
		grant:      gov.Grant("pipeline-window"),
		window:     pipelineWindowPerWorker * width,
		inflight:   map[int]bool{},
		ready:      map[int]morselOut{},
	}
	pl.cond = sync.NewCond(&pl.mu)
	pl.out.Cols = make([][]int64, len(serial.Columns()))
	return pl
}

// Columns implements BatchOperator.
func (pl *Pipeline) Columns() []string { return pl.serial.Columns() }

// start runs once before the first emit: it constructs morsel 0's stage
// chain on the consumer goroutine — forcing every join build exactly once,
// single-threaded — and either latches the serial fallback (un-cloneable
// stage) or spawns the helper tasks.
func (pl *Pipeline) start() {
	pl.started = true
	hi := pl.morselRows
	if hi > pl.table.NumRows() {
		hi = pl.table.NumRows()
	}
	if _, err := pl.build(NewBatchScanRange(pl.table, 0, hi, pl.batchSize)); err != nil {
		pl.fallback = true
		return
	}
	pl.mu.Lock()
	spawn := pl.spawnCountLocked()
	pl.mu.Unlock()
	pl.submitHelpers(spawn)
}

// NextBatch implements BatchOperator: it serves the current morsel's output
// as zero-copy batchSize sub-slices, releasing each morsel's window
// reservation as it is fully emitted.
func (pl *Pipeline) NextBatch() (*Batch, bool) {
	if !pl.started {
		pl.start()
	}
	if pl.fallback {
		return pl.serial.NextBatch()
	}
	for {
		if pl.curSet {
			n := 0
			if len(pl.cur.cols) > 0 {
				n = len(pl.cur.cols[0])
			}
			if pl.pos < n {
				end := pl.pos + pl.batchSize
				if end > n {
					end = n
				}
				for c := range pl.cur.cols {
					pl.out.Cols[c] = pl.cur.cols[c][pl.pos:end]
				}
				pl.out.Sel = nil
				pl.pos = end
				return &pl.out, true
			}
			pl.grant.Release(pl.cur.bytes)
			pl.cur, pl.curSet = morselOut{}, false
		}
		if !pl.advance() {
			return nil, false
		}
	}
}

// advance moves the emit cursor to the next morsel's output, waiting on
// in-flight helpers or running the morsel inline when no helper has claimed
// it. Returns false once every morsel has been emitted.
func (pl *Pipeline) advance() bool {
	pl.mu.Lock()
	for {
		if pl.pval != nil {
			v := pl.pval
			pl.mu.Unlock()
			panic(v)
		}
		if pl.emit >= pl.nmorsels {
			pl.mu.Unlock()
			return false
		}
		if out, ok := pl.ready[pl.emit]; ok {
			delete(pl.ready, pl.emit)
			pl.emit++
			// The window slid forward: refill the helper complement.
			spawn := pl.spawnCountLocked()
			pl.mu.Unlock()
			pl.submitHelpers(spawn)
			pl.cur, pl.curSet, pl.pos = out, true, 0
			return true
		}
		if pl.inflight[pl.emit] {
			pl.cond.Wait()
			continue
		}
		// Morsels are claimed in ascending order and everything below emit has
		// been emitted, so an unclaimed emit is exactly pl.next: run it here.
		seq := pl.next
		pl.next++
		pl.inflight[seq] = true
		pl.mu.Unlock()
		pl.runMorsel(seq)
		pl.mu.Lock()
	}
}

// spawnCountLocked reserves helper slots for the claimable morsels inside
// the window and returns how many helper tasks the caller must submit (the
// submission happens outside the mutex: a closed private pool runs tasks
// inline, and an inline helper needs the mutex).
func (pl *Pipeline) spawnCountLocked() int {
	want := pl.width - 1 - pl.helpers
	if m := pl.nmorsels - pl.next; want > m {
		want = m
	}
	if m := pl.emit + pl.window - pl.next; want > m {
		want = m
	}
	if want < 0 {
		want = 0
	}
	pl.helpers += want
	return want
}

func (pl *Pipeline) submitHelpers(n int) {
	for i := 0; i < n; i++ {
		pl.pool.Submit(pl.helper)
	}
}

// helper is one pool task: claim and run morsels until the window is full,
// the morsels are exhausted, or a sibling panicked.
func (pl *Pipeline) helper() {
	for {
		pl.mu.Lock()
		if pl.pval != nil || pl.next >= pl.nmorsels || pl.next >= pl.emit+pl.window {
			pl.helpers--
			pl.cond.Broadcast()
			pl.mu.Unlock()
			return
		}
		seq := pl.next
		pl.next++
		pl.inflight[seq] = true
		pl.mu.Unlock()
		pl.runMorsel(seq)
	}
}

// runMorsel executes one morsel's stage chain and parks the output in the
// reorder window under its sequence number.
func (pl *Pipeline) runMorsel(seq int) {
	defer func() {
		if r := recover(); r != nil {
			pl.mu.Lock()
			if pl.pval == nil {
				pl.pval = r
			}
			delete(pl.inflight, seq)
			pl.cond.Broadcast()
			pl.mu.Unlock()
		}
	}()
	out := pl.execMorsel(seq)
	pl.grant.Force(out.bytes)
	pl.mu.Lock()
	pl.ready[seq] = out
	delete(pl.inflight, seq)
	pl.cond.Broadcast()
	pl.mu.Unlock()
}

// execMorsel rebuilds the stage chain over morsel seq's scan range and
// drains it, compacting selection vectors into private column slabs.
func (pl *Pipeline) execMorsel(seq int) morselOut {
	lo := seq * pl.morselRows
	hi := lo + pl.morselRows
	if n := pl.table.NumRows(); hi > n {
		hi = n
	}
	op, err := pl.build(NewBatchScanRange(pl.table, lo, hi, pl.batchSize))
	if err != nil {
		// start() already proved the chain clones; a later failure is a bug.
		panic(fmt.Errorf("exec: pipeline stage rebuild for morsel %d: %w", seq, err))
	}
	cols := make([][]int64, len(pl.out.Cols))
	for {
		b, ok := op.NextBatch()
		if !ok {
			break
		}
		for c, src := range b.Cols {
			if b.Sel != nil {
				for _, r := range b.Sel {
					cols[c] = append(cols[c], src[r])
				}
			} else {
				cols[c] = append(cols[c], src...)
			}
		}
	}
	var bytes int64
	for _, c := range cols {
		bytes += int64(len(c)) * 8
	}
	return morselOut{cols: cols, bytes: bytes}
}

// Reset implements BatchOperator: it quiesces the helpers, drops buffered
// morsels (releasing their reservations), and rewinds the cursors. The
// joins' built hash tables are retained inside the recorded stages, so a
// replay probes the same tables — exactly the serial chain's Reset contract.
func (pl *Pipeline) Reset() {
	if !pl.started {
		return
	}
	if pl.fallback {
		pl.serial.Reset()
		return
	}
	pl.mu.Lock()
	// Park the claim cursor at the end so helpers drain and exit instead of
	// claiming fresh morsels, then wait the in-flight ones out.
	pl.next = pl.nmorsels
	for pl.helpers > 0 || len(pl.inflight) > 0 {
		pl.cond.Wait()
	}
	//statcheck:ignore maprange releasing reservations is commutative; the map is emptied either way
	for seq, out := range pl.ready {
		pl.grant.Release(out.bytes)
		delete(pl.ready, seq)
	}
	if pl.curSet {
		pl.grant.Release(pl.cur.bytes)
		pl.cur, pl.curSet = morselOut{}, false
	}
	pl.next, pl.emit, pl.pos = 0, 0, 0
	pl.pval = nil
	pl.started = false
	pl.mu.Unlock()
}
