package exec

import (
	"fmt"

	"github.com/sitstats/sits/internal/mem"
)

// JoinCond is one equality condition between a left and a right column.
type JoinCond struct {
	LeftCol, RightCol string
}

// VecHashJoin is the vectorized equi-join: it drains the left (build) input
// batch-wise into a joinTable — flat arena, open-addressing slots — and
// streams the right (probe) input, emitting concatenated left-row ++ right-row
// matches as column batches. Matches are emitted per probe row in build-input
// order, so the output row sequence is the same at every memory budget.
type VecHashJoin struct {
	left, right BatchOperator
	conds       []JoinCond
	lIdx, rIdx  []int
	cols        []string
	size        int

	built bool
	jt    *joinTable

	// Memory governance. gov/grant are nil for un-budgeted joins; buildBytes
	// tracks the arena's reservation, grace is non-nil once the build side
	// overflowed the grant and the join switched to grace partitioning.
	gov        *mem.Governor
	grant      *mem.Grant
	buildBytes int64
	grace      *graceJoin

	// Probe state, persisted across NextBatch calls so a long match chain can
	// span several output batches.
	rb        *Batch  // current right batch
	rpos      int     // logical position within rb
	rrow      int     // physical row of the in-flight probe
	chain     int32   // next chain row to emit (1-based, 0 = none)
	probeVals []int64 // key tuple of the in-flight probe row

	out  Batch
	bufs [][]int64
}

// NewVecHashJoinSize joins left and right on the conjunction of conds.
// batchSize is the output batch size (0 = adaptive from the output column
// count).
func NewVecHashJoinSize(left, right BatchOperator, batchSize int, conds ...JoinCond) (*VecHashJoin, error) {
	if len(conds) == 0 {
		return nil, fmt.Errorf("exec: hash join needs at least one condition")
	}
	j := &VecHashJoin{left: left, right: right, conds: conds}
	for _, c := range conds {
		li, err := columnIndex(left.Columns(), c.LeftCol)
		if err != nil {
			return nil, err
		}
		ri, err := columnIndex(right.Columns(), c.RightCol)
		if err != nil {
			return nil, err
		}
		j.lIdx = append(j.lIdx, li)
		j.rIdx = append(j.rIdx, ri)
	}
	j.cols = append(append([]string(nil), left.Columns()...), right.Columns()...)
	if batchSize <= 0 {
		batchSize = AdaptiveBatchSize(len(j.cols))
	}
	j.size = batchSize
	j.probeVals = make([]int64, len(conds))
	j.bufs = make([][]int64, len(j.cols))
	for i := range j.bufs {
		j.bufs[i] = make([]int64, 0, j.size)
	}
	j.out.Cols = make([][]int64, len(j.cols))
	return j, nil
}

// NewVecHashJoinMem is NewVecHashJoinSize with the build side budgeted
// through gov: when the arena exceeds the operator's grant, the join spills
// into grace hash partitioning (see gracejoin.go) and the output stays
// byte-identical to the in-memory join. A nil governor means unlimited.
func NewVecHashJoinMem(left, right BatchOperator, batchSize int, gov *mem.Governor, conds ...JoinCond) (*VecHashJoin, error) {
	j, err := NewVecHashJoinSize(left, right, batchSize, conds...)
	if err != nil {
		return nil, err
	}
	j.gov = gov
	if gov != nil {
		j.grant = gov.Grant("hashjoin-build")
	}
	return j, nil
}

// Columns implements BatchOperator.
func (j *VecHashJoin) Columns() []string { return j.cols }

// build drains the build side into the hash table (or, once the arena
// overflows its grant, into grace partitions).
func (j *VecHashJoin) build() {
	j.jt = newJoinTable(len(j.left.Columns()), j.lIdx)
	for {
		b, ok := j.left.NextBatch()
		if !ok {
			break
		}
		if j.grace != nil {
			j.grace.addBuildBatch(b)
			continue
		}
		need := int64(b.NumRows()) * int64(j.jt.stride) * 8
		if j.grant.TryReserve(need) {
			j.buildBytes += need
			j.jt.appendBatch(b)
			continue
		}
		j.startGrace()
		j.grace.addBuildBatch(b)
	}
	if j.grace == nil {
		j.jt.build()
	}
	j.built = true
}

// NextBatch implements BatchOperator. Returned batches hold up to the
// configured batch size and are reused across calls.
//
//statcheck:hot
func (j *VecHashJoin) NextBatch() (*Batch, bool) {
	if !j.built {
		j.build()
	}
	if j.grace != nil {
		return j.grace.nextBatch()
	}
	nl := j.jt.stride
	for i := range j.bufs {
		j.bufs[i] = j.bufs[i][:0]
	}
	emitted := 0
	for {
		// Drain the in-flight chain first.
		for j.chain != 0 {
			r := j.chain
			j.chain = j.jt.chainNext(r)
			if !j.jt.single && !j.jt.matches(r, j.probeVals) {
				continue
			}
			row := j.jt.buildRow(r)
			for i := 0; i < nl; i++ {
				j.bufs[i] = append(j.bufs[i], row[i])
			}
			for i, c := range j.rb.Cols {
				j.bufs[nl+i] = append(j.bufs[nl+i], c[j.rrow])
			}
			emitted++
			if emitted >= j.size {
				return j.flush(), true
			}
		}
		// Advance to the next probe row, pulling right batches as needed.
		if j.rb == nil || j.rpos >= j.rb.NumRows() {
			rb, ok := j.right.NextBatch()
			if !ok {
				j.rb = nil
				if emitted > 0 {
					return j.flush(), true
				}
				return nil, false
			}
			j.rb, j.rpos = rb, 0
			continue
		}
		r := j.rpos
		if j.rb.Sel != nil {
			r = int(j.rb.Sel[j.rpos])
		}
		j.rpos++
		j.rrow = r
		for i, c := range j.rIdx {
			j.probeVals[i] = j.rb.Cols[c][r]
		}
		key, h := j.jt.probeKeyHash(j.probeVals)
		j.chain = j.jt.probeHead(key, h)
	}
}

func (j *VecHashJoin) flush() *Batch {
	copy(j.out.Cols, j.bufs)
	j.out.Sel = nil
	return &j.out
}

// Reset implements BatchOperator: the hash table (or, in grace mode, the
// spilled output runs) is retained and only the probe stream rewinds.
func (j *VecHashJoin) Reset() {
	if j.grace != nil {
		j.grace.reset()
		return
	}
	j.right.Reset()
	j.rb, j.rpos, j.chain = nil, 0, 0
}
