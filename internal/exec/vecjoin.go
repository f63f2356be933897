package exec

import (
	"fmt"
	"slices"

	"github.com/sitstats/sits/internal/mem"
)

// JoinCond is one equality condition between a left and a right column.
type JoinCond struct {
	LeftCol, RightCol string
}

// VecHashJoin is the vectorized equi-join: it drains the left (build) input
// batch-wise into a joinTable — flat arena, open-addressing slots — and
// streams the right (probe) input, emitting left-row ++ right-row matches as
// column batches. A join planned by PlanBatch emits only the columns later
// operators read; the exported constructors emit every input column. In
// memory, matches are emitted per probe row in build-input order. A join
// that spills under a memory budget yields the same multiset of rows in an
// unspecified order (see gracejoin.go).
type VecHashJoin struct {
	left, right BatchOperator
	conds       []JoinCond
	// An arena row holds the kept left columns first, then the key columns
	// not kept: lCols is the left input column of each arena column, and the
	// first nl of them are output. lKey holds the key columns' arena
	// offsets, rIdx the right input's key columns, rOut its kept columns.
	lCols, lKey []int
	nl          int
	rIdx, rOut  []int
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
	probeRow  []int64 // kept columns of the in-flight probe row, copied when it has a chain

	out  Batch
	bufs [][]int64
}

// NewVecHashJoinSize joins left and right on the conjunction of conds and
// emits every column of both inputs. batchSize is the output batch size (0 =
// adaptive from the output column count).
func NewVecHashJoinSize(left, right BatchOperator, batchSize int, conds ...JoinCond) (*VecHashJoin, error) {
	return newVecHashJoin(left, right, nil, batchSize, nil, conds)
}

// NewVecHashJoinMem is NewVecHashJoinSize with the build side budgeted
// through gov: when the arena exceeds the operator's grant, the join spills
// into grace hash partitioning (see gracejoin.go) and yields the in-memory
// join's multiset of rows, in an unspecified order. A nil governor means
// unlimited.
func NewVecHashJoinMem(left, right BatchOperator, batchSize int, gov *mem.Governor, conds ...JoinCond) (*VecHashJoin, error) {
	return newVecHashJoin(left, right, nil, batchSize, gov, conds)
}

// newVecHashJoin builds the join. keep selects the output columns among the
// inputs' (nil keeps all of them); the key columns need not be kept.
func newVecHashJoin(left, right BatchOperator, keep map[string]bool, batchSize int, gov *mem.Governor, conds []JoinCond) (*VecHashJoin, error) {
	if len(conds) == 0 {
		return nil, fmt.Errorf("exec: hash join needs at least one condition")
	}
	j := &VecHashJoin{left: left, right: right, conds: conds, gov: gov}
	for i, c := range left.Columns() {
		if keep == nil || keep[c] {
			j.lCols = append(j.lCols, i)
			j.cols = append(j.cols, c)
		}
	}
	j.nl = len(j.lCols)
	for i, c := range right.Columns() {
		if keep == nil || keep[c] {
			j.rOut = append(j.rOut, i)
			j.cols = append(j.cols, c)
		}
	}
	for _, c := range conds {
		li, err := columnIndex(left.Columns(), c.LeftCol)
		if err != nil {
			return nil, err
		}
		ri, err := columnIndex(right.Columns(), c.RightCol)
		if err != nil {
			return nil, err
		}
		k := slices.Index(j.lCols, li)
		if k < 0 {
			k = len(j.lCols)
			j.lCols = append(j.lCols, li)
		}
		j.lKey = append(j.lKey, k)
		j.rIdx = append(j.rIdx, ri)
	}
	if batchSize <= 0 {
		batchSize = AdaptiveBatchSize(len(j.cols))
	}
	j.size = batchSize
	j.probeVals = make([]int64, len(conds))
	j.probeRow = make([]int64, len(j.rOut))
	j.bufs = make([][]int64, len(j.cols))
	for i := range j.bufs {
		j.bufs[i] = make([]int64, 0, j.size)
	}
	j.out.Cols = make([][]int64, len(j.cols))
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
	j.jt = newJoinTable(len(j.lCols), j.lKey)
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
			j.jt.appendBatch(b, j.lCols)
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
		// Drain the in-flight chain first: each match is the arena row's
		// leading nl (output) columns and the probe row's kept columns.
		jt := j.jt
		nl := j.nl
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
				return j.flush(emitted), true
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
				return j.flush(emitted), true
			}
			return nil, false
		}
	}
}

// nextProbe advances to the next probe row, pulling right batches as needed:
// it sets the row's chain and, when the chain is non-empty, copies the row's
// kept columns into probeRow. It reports false once the probe side is exhausted.
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
		for i, c := range j.rOut {
			j.probeRow[i] = j.rb.Cols[c][r]
		}
	}
	return true
}

func (j *VecHashJoin) flush(rows int) *Batch {
	copy(j.out.Cols, j.bufs)
	j.out.Sel = nil
	j.out.rows = rows
	return &j.out
}
