package exec

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/sitstats/sits/internal/mem"
)

// BatchSort materializes its input column-wise and sorts it by one column
// ascending: it argsorts an index permutation over the materialized column
// vectors and gathers each column once. The sort is stable: rows with equal
// keys keep their input order.
//
// Under a memory governor BatchSort is an external merge sort: input buffers
// grow only as far as the operator's grant allows; when a reservation is
// denied the buffered rows are stolen into a pool task that argsorts and
// spills them as one sorted run while the drain keeps scanning, and after the
// drain the spilled runs are recombined by a loser-tree k-way merge, breaking
// key ties by run index so the merged stream is bit-identical to the
// in-memory stable sort at any budget and any pool width. Without a governor (or when
// everything fits the budget) the in-memory path is unchanged: argsort an
// index permutation, gather every column once, serve zero-copy sub-slices.
type BatchSort struct {
	in    BatchOperator
	col   string
	idx   int
	size  int
	grant *mem.Grant
	gov   *mem.Governor

	sorted bool
	// In-memory mode: fully sorted columns served as sub-slices.
	cols [][]int64
	n    int
	pos  int
	out  Batch
	// Drain state. permBytes is the argsort permutation's reservation: the
	// perm slice is sized to the high-water buffered row count and reused
	// across spill runs, so its bytes are reserved as the buffer grows and
	// retained when a run is flushed.
	bufCols   [][]int64
	bufBytes  int64
	perm      []int32
	permBytes int64
	// Async run generation: a flushed buffer is stolen (columns plus their
	// byte reservation) into a pool task that argsorts and spills it while
	// the drain keeps scanning. runTarget is latched to half the buffer's
	// high-water size at the first budget denial, so from then on half the
	// budget holds the run being spilled and half refills behind it.
	runTarget int64
	spills    []*spillJob
	mu        sync.Mutex // guards runs and spillErr against spill tasks
	spillErr  any
	// Spill mode: sorted runs recombined by a loser-tree merge.
	runs    []*mem.Run
	cursors []*colCursor
	lt      *loserTree
	bufs    [][]int64
}

// spillJob is one stolen sort buffer awaiting argsort + spill. The pool runs
// it when a worker frees up, but the claim flag lets the sort itself execute
// the job inline from waitSpills — so a sort blocked waiting on its spills
// always makes progress even when every pool worker is busy (or is itself a
// sort waiting on spills).
type spillJob struct {
	claimed atomic.Bool
	done    chan struct{}
	run     func()
}

// exec runs the job if no one has claimed it yet; otherwise the claimer is
// already on it and done will close when it finishes.
func (j *spillJob) exec() {
	if !j.claimed.CompareAndSwap(false, true) {
		return
	}
	defer close(j.done)
	j.run()
}

// NewBatchSort sorts in by col ascending, with an adaptive batch size derived
// from the output width.
func NewBatchSort(in BatchOperator, col string) (*BatchSort, error) {
	return NewBatchSortSize(in, col, 0)
}

// NewBatchSortSize is NewBatchSort with an explicit batch size (0 = adaptive).
func NewBatchSortSize(in BatchOperator, col string, batchSize int) (*BatchSort, error) {
	return NewBatchSortMem(in, col, batchSize, nil)
}

// NewBatchSortMem is NewBatchSortSize with a memory governor (nil =
// unlimited, never spills).
func NewBatchSortMem(in BatchOperator, col string, batchSize int, gov *mem.Governor) (*BatchSort, error) {
	i, err := columnIndex(in.Columns(), col)
	if err != nil {
		return nil, err
	}
	if batchSize <= 0 {
		batchSize = AdaptiveBatchSize(len(in.Columns()))
	}
	s := &BatchSort{in: in, col: col, idx: i, size: batchSize, gov: gov}
	s.grant = gov.Grant("sort(" + col + ")")
	s.out.Cols = make([][]int64, len(in.Columns()))
	return s, nil
}

// Columns implements BatchOperator.
func (s *BatchSort) Columns() []string { return s.in.Columns() }

// drainBatch copies a batch's active rows into the drain buffers.
func (s *BatchSort) drainBatch(b *Batch) {
	if b.Sel != nil {
		for c, col := range b.Cols {
			for _, r := range b.Sel {
				s.bufCols[c] = append(s.bufCols[c], col[r])
			}
		}
	} else {
		for c, col := range b.Cols {
			s.bufCols[c] = append(s.bufCols[c], col...)
		}
	}
}

// argsortBuf stable-argsorts the buffered rows by the key column into s.perm.
func (s *BatchSort) argsortBuf() {
	n := len(s.bufCols[s.idx])
	if cap(s.perm) < n {
		s.perm = make([]int32, n)
	}
	perm := s.perm[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	key := s.bufCols[s.idx]
	sort.SliceStable(perm, func(i, j int) bool { return key[perm[i]] < key[perm[j]] })
	s.perm = perm
}

// flushRunAsync steals the buffered rows — columns and their byte
// reservation — into a pool task that argsorts and spills them as one sorted
// run, then hands the drain a fresh empty buffer. The run's slot in s.runs is
// assigned here, at steal time, so run numbering is input order regardless of
// which spill task finishes first — the merge's (key, run index) tie-break
// relies on that. The stolen reservation is released by the task once the run
// is on disk; a panic inside the task (spillFail on I/O errors) is stashed
// and re-raised by waitSpills on the draining goroutine.
func (s *BatchSort) flushRunAsync() {
	nc := len(s.bufCols)
	if nc == 0 || len(s.bufCols[s.idx]) == 0 {
		return
	}
	store, err := s.gov.Runs()
	if err != nil {
		spillFail("open run store", err)
	}
	cols, bytes := s.bufCols, s.bufBytes
	s.bufCols = make([][]int64, nc)
	s.bufBytes = 0
	s.mu.Lock()
	slot := len(s.runs)
	s.runs = append(s.runs, nil)
	s.mu.Unlock()
	j := &spillJob{done: make(chan struct{})}
	j.run = func() {
		defer func() {
			if r := recover(); r != nil {
				s.mu.Lock()
				if s.spillErr == nil {
					s.spillErr = r
				}
				s.mu.Unlock()
			}
		}()
		s.spillRun(store, cols, slot)
		s.grant.Release(bytes)
	}
	s.spills = append(s.spills, j)
	Default().Submit(j.exec)
}

// spillRun stable-argsorts cols by the key column and writes them as the
// sorted run in slot. It runs on a pool worker (or inline from waitSpills),
// so it works only on its own arguments and per-call scratch; s.runs is the
// one shared structure it touches, under s.mu.
func (s *BatchSort) spillRun(store *mem.RunStore, cols [][]int64, slot int) {
	nc := len(cols)
	n := len(cols[s.idx])
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	key := cols[s.idx]
	sort.SliceStable(perm, func(i, j int) bool { return key[perm[i]] < key[perm[j]] })
	w, err := store.Create("sortrun", nc)
	if err != nil {
		spillFail("create sorted run", err)
	}
	chunk := make([][]int64, nc)
	for c := range chunk {
		chunk[c] = make([]int64, spillBatchRows)
	}
	for start := 0; start < n; start += spillBatchRows {
		end := start + spillBatchRows
		if end > n {
			end = n
		}
		for c := 0; c < nc; c++ {
			dst := chunk[c][:end-start]
			src := cols[c]
			for i := range dst {
				dst[i] = src[perm[start+i]]
			}
			chunk[c] = dst
		}
		if err := w.WriteColumns(chunk); err != nil {
			spillFail("write sorted run", err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		spillFail("finish sorted run", err)
	}
	s.mu.Lock()
	s.runs[slot] = run
	s.mu.Unlock()
}

// waitSpills drives every outstanding spill job to completion and re-raises
// the first panic any of them hit. The wait claims unstarted jobs and runs
// them inline (see spillJob), so it cannot deadlock behind a saturated pool.
func (s *BatchSort) waitSpills() {
	if len(s.spills) == 0 {
		return
	}
	for _, j := range s.spills {
		j.exec()
	}
	for _, j := range s.spills {
		<-j.done
	}
	s.spills = s.spills[:0]
	s.mu.Lock()
	r := s.spillErr
	s.spillErr = nil
	s.mu.Unlock()
	if r != nil {
		panic(r)
	}
}

// reserveDrain reserves the bytes that admitting batch b into the drain
// buffers costs: the row data plus any growth of the argsort permutation
// (4 bytes per high-water buffered row — reused across runs, so its
// reservation is kept when a run flushes). With force the reservation is
// taken unconditionally.
func (s *BatchSort) reserveDrain(b *Batch, nc int, force bool) bool {
	rows := int64(b.NumRows())
	need := rows * int64(nc) * 8
	var permNeed int64
	if nc > 0 {
		if pb := 4 * (int64(len(s.bufCols[s.idx])) + rows); pb > s.permBytes {
			permNeed = pb - s.permBytes
		}
	}
	if force {
		s.grant.Force(need + permNeed)
	} else if !s.grant.TryReserve(need + permNeed) {
		return false
	}
	s.bufBytes += need
	s.permBytes += permNeed
	return true
}

// sort drains the input under the memory grant, spilling sorted runs when
// the budget denies growth, then either finishes in memory (argsort + gather
// — with a presorted fast path) or sets up the loser-tree merge over the
// spilled runs.
func (s *BatchSort) sort() {
	s.sorted = true
	nc := len(s.out.Cols)
	s.bufCols = make([][]int64, nc)
	for {
		b, ok := s.in.NextBatch()
		if !ok {
			break
		}
		// Once runTarget is latched, flush proactively at half the budget:
		// the stolen half spills on the pool while the freed half refills
		// behind it, overlapping run generation with the scan.
		if s.runTarget > 0 && s.bufBytes >= s.runTarget {
			s.flushRunAsync()
		}
		if s.reserveDrain(b, nc, false) {
			s.drainBatch(b)
			continue
		}
		// Budget denied: steal the buffer into a spill task, wait for every
		// in-flight spill to return its reservation, then retry; a single
		// batch larger than the whole budget is force-admitted and spilled
		// alone.
		if s.runTarget == 0 {
			s.runTarget = s.bufBytes / 2
		}
		s.flushRunAsync()
		s.waitSpills()
		if s.reserveDrain(b, nc, false) {
			s.drainBatch(b)
			continue
		}
		s.reserveDrain(b, nc, true)
		s.drainBatch(b)
		s.flushRunAsync()
		s.waitSpills()
	}

	if len(s.runs) == 0 {
		s.finishInMemory()
		return
	}
	s.flushRunAsync()
	s.waitSpills()
	s.bufCols = nil
	s.openMerge()
}

// finishInMemory completes the no-spill path: presorted detection, then
// argsort + gather. The gather needs a second copy of the working set; when
// even that reservation is denied, the buffer is spilled as a single sorted
// run and served through the (memory-light) merge path instead.
func (s *BatchSort) finishInMemory() {
	nc := len(s.out.Cols)
	cols := s.bufCols
	s.n = 0
	if nc > 0 {
		s.n = len(cols[0])
	}
	key := []int64(nil)
	if nc > 0 {
		key = cols[s.idx]
	}
	presorted := true
	for i := 1; i < s.n; i++ {
		if key[i] < key[i-1] {
			presorted = false
			break
		}
	}
	switch {
	case presorted:
		s.cols = cols
	case !s.grant.TryReserve(int64(s.n) * int64(nc) * 8):
		s.flushRunAsync()
		s.waitSpills()
		s.bufCols = nil
		s.openMerge()
		return
	default:
		s.argsortBuf()
		s.cols = make([][]int64, nc)
		for c := range cols {
			s.cols[c] = make([]int64, s.n)
		}
		s.gather(cols)
		// The drain buffers are dead now; the grant keeps only the sorted
		// copy it just reserved.
		s.grant.Release(s.bufBytes)
		s.bufBytes = int64(s.n) * int64(nc) * 8
	}
	s.bufCols = nil
}

// gatherBlockRows is the morsel granularity of the parallel gather: below
// one block the fork-join dispatch costs more than the copy.
const gatherBlockRows = 1 << 15

// gather permutes every drained column into its sorted order. Large sorts
// fan the (column, row-block) grid out over the shared pool; every task
// writes a disjoint destination range through the same permutation, so the
// result is identical at any pool width.
func (s *BatchSort) gather(cols [][]int64) {
	nc := len(cols)
	perm := s.perm[:s.n]
	if s.n < gatherBlockRows {
		for c := range cols {
			src, dst := cols[c], s.cols[c]
			for i, p := range perm {
				dst[i] = src[p]
			}
		}
		return
	}
	nb := (s.n + gatherBlockRows - 1) / gatherBlockRows
	Default().ForkJoin(nc*nb, func(t int) {
		c, blk := t/nb, t%nb
		lo := blk * gatherBlockRows
		hi := lo + gatherBlockRows
		if hi > s.n {
			hi = s.n
		}
		src, dst := cols[c], s.cols[c]
		for i := lo; i < hi; i++ {
			dst[i] = src[perm[i]]
		}
	})
}

// openMerge opens a cursor per spilled run and builds the loser tree; called
// after the drain and again on Reset.
func (s *BatchSort) openMerge() {
	if cap(s.cursors) < len(s.runs) {
		s.cursors = make([]*colCursor, len(s.runs))
	}
	s.cursors = s.cursors[:len(s.runs)]
	for i, run := range s.runs {
		s.cursors[i] = openColCursor(run)
	}
	s.lt = newLoserTree(len(s.cursors), s.mergeLess)
	if s.bufs == nil {
		nc := len(s.out.Cols)
		s.bufs = make([][]int64, nc)
		for c := range s.bufs {
			s.bufs[c] = make([]int64, 0, s.size)
		}
	}
}

// mergeLess orders merge cursors by (key, run index): runs are created in
// input order, so the index tie-break reproduces the stable sort's order for
// equal keys. Exhausted cursors and padding indices sort last.
func (s *BatchSort) mergeLess(a, b int) bool {
	var ca, cb *colCursor
	if a < len(s.cursors) {
		ca = s.cursors[a]
	}
	if b < len(s.cursors) {
		cb = s.cursors[b]
	}
	if ca == nil || ca.done {
		return false
	}
	if cb == nil || cb.done {
		return true
	}
	ka, kb := ca.cols[s.idx][ca.pos], cb.cols[s.idx][cb.pos]
	if ka != kb {
		return ka < kb
	}
	return a < b
}

// NextBatch implements BatchOperator: in-memory batches are sub-slices of
// the sorted columns (no copying after the sort); spilled batches are merged
// from the runs into reused output buffers.
func (s *BatchSort) NextBatch() (*Batch, bool) {
	if !s.sorted {
		s.sort()
	}
	if s.lt != nil {
		return s.nextMerged()
	}
	if s.pos >= s.n {
		return nil, false
	}
	end := s.pos + s.size
	if end > s.n {
		end = s.n
	}
	for c := range s.cols {
		s.out.Cols[c] = s.cols[c][s.pos:end]
	}
	s.out.Sel = nil
	s.pos = end
	return &s.out, true
}

// nextMerged pulls the next output batch from the loser-tree merge over the
// spilled sorted runs.
//
//statcheck:hot
func (s *BatchSort) nextMerged() (*Batch, bool) {
	nc := len(s.bufs)
	for c := range s.bufs {
		s.bufs[c] = s.bufs[c][:0]
	}
	emitted := 0
	for emitted < s.size {
		w := s.lt.winner()
		cur := s.cursors[w]
		if cur.done {
			break
		}
		for c := 0; c < nc; c++ {
			s.bufs[c] = append(s.bufs[c], cur.cols[c][cur.pos])
		}
		cur.advance()
		s.lt.fix()
		emitted++
	}
	if emitted == 0 {
		return nil, false
	}
	copy(s.out.Cols, s.bufs)
	s.out.Sel = nil
	return &s.out, true
}

// Reset implements BatchOperator: the sorted data is retained and only the
// output cursor rewinds. In spill mode the runs are retained and the merge
// restarts over fresh cursors.
func (s *BatchSort) Reset() {
	s.pos = 0
	if s.lt != nil {
		for _, c := range s.cursors {
			if !c.done {
				if err := c.rd.Close(); err != nil {
					spillFail("close sorted run", err)
				}
			}
		}
		s.openMerge()
	}
}
