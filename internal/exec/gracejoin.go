package exec

import (
	"fmt"
	"io"

	"github.com/sitstats/sits/internal/mem"
)

// Grace hash join: the spill path of VecHashJoin.
//
// When the build side's arena exceeds the operator's memory grant, the join
// switches to grace mode: build rows are hash-partitioned to per-partition
// spill runs (the partition is a pure function of the join-key hash, so all
// rows with equal keys land in the same partition, and rows are written in
// global build order, so each partition's run preserves build-input order).
// The probe side is then partitioned the same way, with every probe row
// tagged with a global sequence number. Each partition is joined
// independently — its build run is loaded into a fresh joinTable under the
// grant and its probe run streamed against it — emitting [seq, left-row,
// right-row] rows to per-partition output runs. A partition whose build run
// still exceeds the grant is hash-partitioned once more with a fresh salt;
// at that second level the residual is force-admitted (equal keys co-hash at
// every level, so further splitting cannot help a single oversized key
// group).
//
// Order restoration: the in-memory join emits matches per probe row (probe
// order) in build-input order within each probe row. Per-partition joins
// preserve exactly that order locally — probe runs are seq-ascending, chains
// are build-ordered — and the sequence number is globally unique per probe
// row, so a loser-tree merge of the output runs by seq reproduces the
// in-memory output stream byte for byte, at any budget.
const gracePartitions = 8

// Partition salts. Level 0 and level 1 must disagree so re-partitioning an
// oversized partition actually redistributes its keys.
const (
	graceSalt0 uint64 = 0x9ddfea08eb382d69
	graceSalt1 uint64 = 0xa24baed4963ee407
)

// gracePartOf maps a join-key hash to its grace partition. The extra mix64
// decorrelates the partition from both the joinTable's internal partitioning
// (high hash bits) and its slot indexing (low bits).
//
//statcheck:hot
func gracePartOf(h, salt uint64) int {
	return int((mix64(h^salt) >> 32) * gracePartitions >> 32)
}

// spillRun buffers fixed-stride rows and flushes them to a flat single-column
// run in whole-row chunks of up to spillBatchRows rows.
type spillRun struct {
	w     *mem.RunWriter
	buf   []int64
	limit int       // flush threshold in values (spillBatchRows * stride)
	chunk [][]int64 // 1-element header reused for WriteColumns
}

func newSpillRun(store *mem.RunStore, tag string, stride int) *spillRun {
	w, err := store.Create(tag, 1)
	if err != nil {
		spillFail("create "+tag+" run", err)
	}
	limit := spillBatchRows * stride
	return &spillRun{w: w, buf: make([]int64, 0, limit), limit: limit, chunk: make([][]int64, 1)}
}

// append adds one row. Rows are exactly stride values, and limit is a
// multiple of stride, so flushed chunks stay whole-row aligned.
func (s *spillRun) append(row []int64) {
	s.buf = append(s.buf, row...)
	if len(s.buf) >= s.limit {
		s.flush()
	}
}

func (s *spillRun) flush() {
	if len(s.buf) == 0 {
		return
	}
	s.chunk[0] = s.buf
	if err := s.w.WriteColumns(s.chunk); err != nil {
		spillFail("write run", err)
	}
	s.buf = s.buf[:0]
}

func (s *spillRun) finish() *mem.Run {
	s.flush()
	r, err := s.w.Finish()
	if err != nil {
		spillFail("finish run", err)
	}
	return r
}

// graceJoin holds VecHashJoin's spill state once the build side has
// overflowed its grant.
type graceJoin struct {
	j     *VecHashJoin
	store *mem.RunStore

	buildW  []*spillRun // level-0 build partition writers (nil after probe starts)
	probeW  []*spillRun
	outRuns []*mem.Run

	buildStride int // left row width
	probeStride int // 1 (seq) + right row width
	outStride   int // 1 (seq) + left row width + right row width

	rowScratch []int64 // buildStride transpose scratch
	probeRow   []int64 // probeStride scratch
	outRow     []int64 // outStride scratch

	seq     int64 // next probe sequence number
	subID   int   // uniquifier for sub-partition run names
	merging bool
	cursors []*rowCursor
	lt      *loserTree
}

// startGrace flips the join into grace mode: the arena accumulated so far is
// flushed to per-partition build runs (in arena order, preserving build-input
// order within each partition) and its reservation returned to the budget.
func (j *VecHashJoin) startGrace() {
	store, err := j.gov.Runs()
	if err != nil {
		spillFail("open run store", err)
	}
	nl := len(j.left.Columns())
	nr := len(j.right.Columns())
	g := &graceJoin{
		j:           j,
		store:       store,
		buildStride: nl,
		probeStride: 1 + nr,
		outStride:   1 + nl + nr,
		rowScratch:  make([]int64, nl),
		probeRow:    make([]int64, 1+nr),
		buildW:      make([]*spillRun, gracePartitions),
	}
	g.outRow = make([]int64, g.outStride)
	for p := range g.buildW {
		g.buildW[p] = newSpillRun(store, fmt.Sprintf("join-build-p%d", p), nl)
	}
	jt := j.jt
	for i := 0; i < jt.rows; i++ {
		row := jt.arena[i*nl : (i+1)*nl]
		_, h := jt.rowKeyHash(row)
		g.buildW[gracePartOf(h, graceSalt0)].append(row)
	}
	j.grant.Release(j.buildBytes)
	j.buildBytes = 0
	jt.arena = nil
	jt.rows = 0
	j.grace = g
}

// addBuildBatch routes one build batch's active rows to their partitions.
func (g *graceJoin) addBuildBatch(b *Batch) {
	jt := g.j.jt
	n := b.NumRows()
	for i := 0; i < n; i++ {
		r := i
		if b.Sel != nil {
			r = int(b.Sel[i])
		}
		for ci, col := range b.Cols {
			g.rowScratch[ci] = col[r]
		}
		_, h := jt.rowKeyHash(g.rowScratch)
		g.buildW[gracePartOf(h, graceSalt0)].append(g.rowScratch)
	}
}

// run executes the grace join to completion: partition the probe side, join
// every partition, and open the order-restoring merge over the output runs.
func (g *graceJoin) run() {
	j := g.j
	buildRuns := make([]*mem.Run, gracePartitions)
	for p := range g.buildW {
		buildRuns[p] = g.buildW[p].finish()
		g.buildW[p] = nil
	}
	g.probeW = make([]*spillRun, gracePartitions)
	for p := range g.probeW {
		g.probeW[p] = newSpillRun(g.store, fmt.Sprintf("join-probe-p%d", p), g.probeStride)
	}
	jt := j.jt
	for {
		rb, ok := j.right.NextBatch()
		if !ok {
			break
		}
		n := rb.NumRows()
		for i := 0; i < n; i++ {
			r := i
			if rb.Sel != nil {
				r = int(rb.Sel[i])
			}
			for ci, c := range j.rIdx {
				j.probeVals[ci] = rb.Cols[c][r]
			}
			_, h := jt.probeKeyHash(j.probeVals)
			g.probeRow[0] = g.seq
			g.seq++
			for ci, col := range rb.Cols {
				g.probeRow[1+ci] = col[r]
			}
			g.probeW[gracePartOf(h, graceSalt0)].append(g.probeRow)
		}
	}
	probeRuns := make([]*mem.Run, gracePartitions)
	for p := range g.probeW {
		probeRuns[p] = g.probeW[p].finish()
		g.probeW[p] = nil
	}
	for p := 0; p < gracePartitions; p++ {
		g.joinPartition(buildRuns[p], probeRuns[p], 0)
	}
	g.openMerge()
}

// joinPartition joins one (build run, probe run) pair. level 0 partitions
// come straight from the inputs; level 1 are the sub-partitions of an
// oversized level-0 partition and force-admit whatever doesn't fit.
func (g *graceJoin) joinPartition(build, probe *mem.Run, level int) {
	j := g.j
	if build.Rows() == 0 || probe.Rows() == 0 {
		g.removeRuns(build, probe)
		return
	}
	jt := newJoinTable(g.buildStride, j.lIdx)
	reserved, ok := g.loadBuild(jt, build, level)
	if !ok {
		g.subPartition(build, probe)
		return
	}
	jt.build()
	out := newSpillRun(g.store, fmt.Sprintf("join-out-l%d", level), g.outStride)
	cur := openRowCursor(probe, g.probeStride)
	g.probePartition(jt, cur, out)
	g.outRuns = append(g.outRuns, out.finish())
	j.grant.Release(reserved)
	g.removeRuns(build, probe)
}

// loadBuild streams a build partition run into a fresh joinTable arena,
// reserving each chunk against the grant. At level 0 a denial abandons the
// load (the caller sub-partitions instead); at level 1 the residual is
// force-admitted, since equal keys co-hash at every level and splitting
// further cannot shrink a single oversized key group.
func (g *graceJoin) loadBuild(jt *joinTable, build *mem.Run, level int) (int64, bool) {
	j := g.j
	rd, err := build.Open()
	if err != nil {
		spillFail("open build partition", err)
	}
	var reserved int64
	for {
		cols, rerr := rd.Next()
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			spillFail("read build partition", rerr)
		}
		chunk := cols[0]
		need := int64(len(chunk)) * 8
		if !j.grant.TryReserve(need) {
			if level == 0 {
				j.grant.Release(reserved)
				if cerr := rd.Close(); cerr != nil {
					spillFail("close build partition", cerr)
				}
				return 0, false
			}
			j.grant.Force(need)
		}
		reserved += need
		copy(jt.grow(len(chunk)), chunk)
		jt.rows += len(chunk) / jt.stride
	}
	if cerr := rd.Close(); cerr != nil {
		spillFail("close build partition", cerr)
	}
	return reserved, true
}

// probePartition streams one probe partition against its built table,
// emitting [seq, left-row, right-row] rows in (seq, build-order) order.
//
//statcheck:hot
func (g *graceJoin) probePartition(jt *joinTable, cur *rowCursor, out *spillRun) {
	j := g.j
	for !cur.done {
		row := cur.row()
		for ci := range j.rIdx {
			j.probeVals[ci] = row[1+j.rIdx[ci]]
		}
		key, h := jt.probeKeyHash(j.probeVals)
		for r := jt.probeHead(key, h); r != 0; r = jt.chainNext(r) {
			if !jt.single && !jt.matches(r, j.probeVals) {
				continue
			}
			g.outRow[0] = row[0]
			copy(g.outRow[1:1+g.buildStride], jt.buildRow(r))
			copy(g.outRow[1+g.buildStride:], row[1:])
			out.append(g.outRow)
		}
		cur.advance()
	}
}

// subPartition re-partitions an oversized level-0 partition with the level-1
// salt and joins each sub-partition. Row order within each sub-run is the
// parent run's order, i.e. still global build/seq order.
func (g *graceJoin) subPartition(build, probe *mem.Run) {
	j := g.j
	g.subID++
	id := g.subID
	subBuild := make([]*spillRun, gracePartitions)
	subProbe := make([]*spillRun, gracePartitions)
	for p := range subBuild {
		subBuild[p] = newSpillRun(g.store, fmt.Sprintf("join-build-s%d-p%d", id, p), g.buildStride)
		subProbe[p] = newSpillRun(g.store, fmt.Sprintf("join-probe-s%d-p%d", id, p), g.probeStride)
	}
	cur := openRowCursor(build, g.buildStride)
	for !cur.done {
		row := cur.row()
		_, h := j.jt.rowKeyHash(row)
		subBuild[gracePartOf(h, graceSalt1)].append(row)
		cur.advance()
	}
	pcur := openRowCursor(probe, g.probeStride)
	for !pcur.done {
		row := pcur.row()
		for ci := range j.rIdx {
			j.probeVals[ci] = row[1+j.rIdx[ci]]
		}
		_, h := j.jt.probeKeyHash(j.probeVals)
		subProbe[gracePartOf(h, graceSalt1)].append(row)
		pcur.advance()
	}
	g.removeRuns(build, probe)
	for p := 0; p < gracePartitions; p++ {
		g.joinPartition(subBuild[p].finish(), subProbe[p].finish(), 1)
	}
}

// removeRuns deletes partition runs the join is done with, reclaiming spill
// disk before the next partition loads.
func (g *graceJoin) removeRuns(runs ...*mem.Run) {
	for _, r := range runs {
		if err := r.Remove(); err != nil {
			spillFail("remove partition run", err)
		}
	}
}

// openMerge opens a cursor per output run and builds the loser tree ordered
// by probe sequence number.
func (g *graceJoin) openMerge() {
	g.cursors = g.cursors[:0]
	for _, r := range g.outRuns {
		g.cursors = append(g.cursors, openRowCursor(r, g.outStride))
	}
	g.lt = newLoserTree(len(g.cursors), g.less)
	g.merging = true
}

// less orders merge cursors by probe sequence number; exhausted and padding
// cursors sort last. Each seq lives in exactly one output run (a probe row
// joins in exactly one partition), so ties only pair dead cursors.
func (g *graceJoin) less(a, b int) bool {
	if a >= len(g.cursors) || g.cursors[a].done {
		return false
	}
	if b >= len(g.cursors) || g.cursors[b].done {
		return true
	}
	return g.cursors[a].key() < g.cursors[b].key()
}

// nextBatch is the grace-mode NextBatch: the first call runs the join to
// completion, then batches stream from the seq-ordered merge of the output
// runs, dropping the seq column.
//
//statcheck:hot
func (g *graceJoin) nextBatch() (*Batch, bool) {
	if !g.merging {
		g.run()
	}
	j := g.j
	nc := len(j.cols)
	for i := range j.bufs {
		j.bufs[i] = j.bufs[i][:0]
	}
	emitted := 0
	for emitted < j.size && len(g.cursors) > 0 {
		w := g.lt.winner()
		if w >= len(g.cursors) {
			break
		}
		cur := g.cursors[w]
		if cur.done {
			break
		}
		row := cur.row()
		for c := 0; c < nc; c++ {
			j.bufs[c] = append(j.bufs[c], row[1+c])
		}
		cur.advance()
		g.lt.fix()
		emitted++
	}
	if emitted == 0 {
		return nil, false
	}
	return j.flush(), true
}

// reset rewinds the grace join for another consumption pass: output runs are
// retained, so a reset only reopens their cursors and replays the merge.
func (g *graceJoin) reset() {
	if !g.merging {
		// The probe phase never started, so the right input is untouched by
		// grace mode; rewind it like the in-memory path would.
		g.j.right.Reset()
		return
	}
	for _, c := range g.cursors {
		if !c.done {
			if err := c.rd.Close(); err != nil {
				spillFail("close output run", err)
			}
		}
	}
	g.openMerge()
}
