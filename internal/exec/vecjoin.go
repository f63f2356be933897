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
// matches as column batches. In memory, matches are emitted per probe row in
// build-input order. A join that spills under a memory budget yields the same
// multiset of rows in an unspecified order (see gracejoin.go).
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
	rb        *Batch  // current right batch (in-memory path)
	rpos      int     // logical position within rb
	chain     int32   // next chain row of jt to emit (1-based, 0 = none)
	probeVals []int64 // key tuple of the in-flight probe row
	// probeRow is the in-flight probe row, copied when it has a chain; the
	// grace join also uses it as scratch while it partitions the probe side.
	probeRow []int64

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
	j.probeRow = make([]int64, len(right.Columns()))
	j.bufs = make([][]int64, len(j.cols))
	for i := range j.bufs {
		j.bufs[i] = make([]int64, 0, j.size)
	}
	j.out.Cols = make([][]int64, len(j.cols))
	return j, nil
}

// NewVecHashJoinMem is NewVecHashJoinSize with the build side budgeted
// through gov: when the arena exceeds the operator's grant, the join spills
// into grace hash partitioning (see gracejoin.go) and yields the in-memory
// join's multiset of rows, in an unspecified order. A nil governor means
// unlimited.
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

// build drains the build side into the hash table, or, once the arena
// overflows its grant, into grace partitions, and then partitions the probe
// side too.
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
	} else {
		j.grace.partitionProbe()
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
	for i := range j.bufs {
		j.bufs[i] = j.bufs[i][:0]
	}
	emitted := 0
	for {
		// Drain the in-flight chain first.
		jt := j.jt
		nl := jt.stride
		for j.chain != 0 {
			r := j.chain
			j.chain = jt.chainNext(r)
			if !jt.single && !jt.matches(r, j.probeVals) {
				continue
			}
			row := jt.buildRow(r)
			for i := 0; i < nl; i++ {
				j.bufs[i] = append(j.bufs[i], row[i])
			}
			for i, v := range j.probeRow {
				j.bufs[nl+i] = append(j.bufs[nl+i], v)
			}
			emitted++
			if emitted >= j.size {
				return j.flush(), true
			}
		}
		var more bool
		if j.grace != nil {
			more = j.grace.nextProbe()
		} else {
			more = j.nextProbe()
		}
		if !more {
			if emitted > 0 {
				return j.flush(), true
			}
			return nil, false
		}
	}
}

// nextProbe advances to the next probe row, pulling right batches as needed:
// it sets the row's chain and, when the chain is non-empty, copies the row
// into probeRow. It reports false once the probe side is exhausted.
//
//statcheck:hot
func (j *VecHashJoin) nextProbe() bool {
	for j.rb == nil || j.rpos >= j.rb.NumRows() {
		rb, ok := j.right.NextBatch()
		if !ok {
			j.rb = nil
			return false
		}
		j.rb, j.rpos = rb, 0
	}
	r := j.rpos
	if j.rb.Sel != nil {
		r = int(j.rb.Sel[j.rpos])
	}
	j.rpos++
	for i, c := range j.rIdx {
		j.probeVals[i] = j.rb.Cols[c][r]
	}
	key, h := j.jt.probeKeyHash(j.probeVals)
	if j.chain = j.jt.probeHead(key, h); j.chain != 0 {
		for i, c := range j.rb.Cols {
			j.probeRow[i] = c[r]
		}
	}
	return true
}

func (j *VecHashJoin) flush() *Batch {
	copy(j.out.Cols, j.bufs)
	j.out.Sel = nil
	return &j.out
}
