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
// rows with equal keys land in the same partition), and once the build side
// is drained the probe side is partitioned the same way. The join then
// streams its matches out one partition at a time: a pending (build run,
// probe run) pair is loaded into the join's table, emptied but with its
// capacity kept from the previous partition, under the grant, and its
// probe run is streamed through VecHashJoin's chain-emission loop, so matches
// leave as output batches and never touch disk. A partition whose build run
// still exceeds the grant is hash-partitioned once more with a fresh salt
// into level-1 pairs; at that level the residual is force-admitted (equal
// keys co-hash at every level, so further splitting cannot help a single
// oversized key group).
//
// The output is the in-memory join's multiset of rows, in partition order:
// within a partition, matches follow probe-run order and build order per
// probe row, but partitions interleave the probe stream. Every consumer of
// plan output sorts or counts it (see PlanBatch), so no order is restored.
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

// gracePair is one partition still to join: its build and probe runs and
// its partitioning level (0 from the inputs, 1 from a sub-partitioning).
type gracePair struct {
	build, probe *mem.Run
	level        int
}

// graceJoin holds VecHashJoin's spill state once the build side has
// overflowed its grant. Everything it holds on disk or in the grant is
// reachable from its fields, so close can abandon it at any point.
type graceJoin struct {
	j     *VecHashJoin
	store *mem.RunStore

	// Partition writers being filled: the level-0 writers while the inputs
	// are partitioned, then each sub-partitioning's.
	buildW, probeW []*spillRun

	buildStride  int     // arena row width
	probeStride  int     // right row width
	rowScratch   []int64 // buildStride transpose scratch
	probeScratch []int64 // probeStride transpose scratch

	pending  []gracePair    // pairs not yet joined; the last is joined next
	live     gracePair      // the pair being loaded or streamed
	cur      *rowCursor     // the live pair's probe stream
	rd       *mem.RunReader // the run reader open now, if any
	reserved int64          // grant bytes held by the live pair's table
	subID    int            // uniquifier for sub-partition run names
}

// startGrace flips the join into grace mode: the arena accumulated so far is
// flushed to per-partition build runs and its reservation returned to the
// budget.
func (j *VecHashJoin) startGrace() {
	store, err := j.gov.Runs()
	if err != nil {
		spillFail("open run store", err)
	}
	nl, nr := len(j.lCols), len(j.right.Columns())
	g := &graceJoin{
		j:            j,
		store:        store,
		buildStride:  nl,
		probeStride:  nr,
		rowScratch:   make([]int64, nl),
		probeScratch: make([]int64, nr),
	}
	g.buildW = g.newWriters("join-build", nl)
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

// newWriters creates one run writer per partition.
func (g *graceJoin) newWriters(tag string, stride int) []*spillRun {
	w := make([]*spillRun, gracePartitions)
	for p := range w {
		w[p] = newSpillRun(g.store, fmt.Sprintf("%s-p%d", tag, p), stride)
	}
	return w
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
		for k, c := range g.j.lCols {
			g.rowScratch[k] = b.Cols[c][r]
		}
		_, h := jt.rowKeyHash(g.rowScratch)
		g.buildW[gracePartOf(h, graceSalt0)].append(g.rowScratch)
	}
}

// partitionProbe drains the probe side into level-0 partition runs and
// queues every (build, probe) pair.
func (g *graceJoin) partitionProbe() {
	j := g.j
	g.probeW = g.newWriters("join-probe", g.probeStride)
	row := g.probeScratch
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
			for ci, col := range rb.Cols {
				row[ci] = col[r]
			}
			g.probeW[g.partOf(row, graceSalt0)].append(row)
		}
	}
	g.queueWriters(0)
}

// partOf returns a probe row's partition under salt.
//
//statcheck:hot
func (g *graceJoin) partOf(row []int64, salt uint64) int {
	j := g.j
	for ci, c := range j.rIdx {
		j.probeVals[ci] = row[c]
	}
	_, h := j.jt.probeKeyHash(j.probeVals)
	return gracePartOf(h, salt)
}

// queueWriters finishes the partition writers and pushes their pairs, last
// partition first, so partitions are joined in index order.
func (g *graceJoin) queueWriters(level int) {
	for p := gracePartitions - 1; p >= 0; p-- {
		g.pending = append(g.pending, gracePair{g.buildW[p].finish(), g.probeW[p].finish(), level})
		g.buildW[p], g.probeW[p] = nil, nil
	}
	g.buildW, g.probeW = nil, nil
}

// nextProbe advances the grace join to its next probe row, opening the next
// pending partition whenever the live one's probe run ends. Like
// VecHashJoin.nextProbe it sets the join's chain and, on a hit, probeRow; it
// reports false once every partition is joined.
//
//statcheck:hot
func (g *graceJoin) nextProbe() bool {
	for g.cur == nil || g.cur.done {
		if g.cur != nil {
			g.finishPartition()
		}
		if !g.openPartition() {
			return false
		}
	}
	j := g.j
	row := g.cur.row()
	for ci, c := range j.rIdx {
		j.probeVals[ci] = row[c]
	}
	key, h := j.jt.probeKeyHash(j.probeVals)
	if j.chain = j.jt.probeHead(key, h); j.chain != 0 {
		for i, c := range j.rOut {
			j.probeRow[i] = row[c]
		}
	}
	g.cur.advance()
	return true
}

// openPartition pops pending pairs until one loads: pairs with an empty side
// are dropped, and a level-0 build run the grant denies is sub-partitioned.
// The loaded table becomes the join's table and its probe run the live
// stream. It reports false when no pair is left.
func (g *graceJoin) openPartition() bool {
	j := g.j
	for len(g.pending) > 0 {
		g.live = g.pending[len(g.pending)-1]
		g.pending = g.pending[:len(g.pending)-1]
		if g.live.build.Rows() == 0 || g.live.probe.Rows() == 0 {
			g.dropLive()
			continue
		}
		if !g.loadBuild(j.jt) {
			j.jt.reset()
			g.subPartition()
			continue
		}
		j.jt.build()
		g.cur = g.openCursor(g.live.probe, g.probeStride)
		return true
	}
	// Every partition is joined: drop the capacity kept for reuse.
	j.jt = newJoinTable(g.buildStride, j.lKey)
	return false
}

// finishPartition returns the live pair's reservation, empties the table for
// the next partition and removes the live runs. The table keeps its capacity
// while partitions remain, so the memory the join holds between partitions
// is at most the largest reservation it has made.
func (g *graceJoin) finishPartition() {
	j := g.j
	j.grant.Release(g.reserved)
	g.reserved = 0
	j.jt.reset()
	g.cur, g.rd = nil, nil
	g.dropLive()
}

// loadBuild streams the live build run into jt's arena, reserving each chunk
// against the grant. At level 0 a denial abandons the load (the caller
// sub-partitions instead); at level 1 the residual is force-admitted, since
// equal keys co-hash at every level and splitting further cannot shrink a
// single oversized key group.
func (g *graceJoin) loadBuild(jt *joinTable) bool {
	j := g.j
	rd, err := g.live.build.Open()
	if err != nil {
		spillFail("open build partition", err)
	}
	g.rd = rd
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
			if g.live.level == 0 {
				j.grant.Release(g.reserved)
				g.reserved = 0
				g.closeReader()
				return false
			}
			j.grant.Force(need)
		}
		g.reserved += need
		copy(jt.grow(len(chunk)), chunk)
		jt.rows += len(chunk) / jt.stride
	}
	g.closeReader()
	return true
}

// subPartition re-partitions the live level-0 pair with the level-1 salt
// and queues the sub-pairs ahead of the remaining level-0 pairs.
func (g *graceJoin) subPartition() {
	g.subID++
	g.buildW = g.newWriters(fmt.Sprintf("join-build-s%d", g.subID), g.buildStride)
	g.probeW = g.newWriters(fmt.Sprintf("join-probe-s%d", g.subID), g.probeStride)
	jt := g.j.jt
	for cur := g.openCursor(g.live.build, g.buildStride); !cur.done; cur.advance() {
		row := cur.row()
		_, h := jt.rowKeyHash(row)
		g.buildW[gracePartOf(h, graceSalt1)].append(row)
	}
	for cur := g.openCursor(g.live.probe, g.probeStride); !cur.done; cur.advance() {
		row := cur.row()
		g.probeW[g.partOf(row, graceSalt1)].append(row)
	}
	g.rd = nil
	g.queueWriters(1)
	g.dropLive()
}

func (g *graceJoin) closeReader() {
	if err := g.rd.Close(); err != nil {
		spillFail("close partition run", err)
	}
	g.rd = nil
}

// dropLive removes the live pair's runs, reclaiming spill disk before the
// next partition loads.
func (g *graceJoin) dropLive() {
	g.removePair(g.live)
	g.live = gracePair{}
}

func (g *graceJoin) removePair(p gracePair) {
	removeRun(p.build)
	removeRun(p.probe)
}

func removeRun(r *mem.Run) {
	if r == nil {
		return
	}
	if err := r.Remove(); err != nil {
		spillFail("remove partition run", err)
	}
}
