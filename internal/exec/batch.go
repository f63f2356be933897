// Package exec is the vectorized query executor over the column store. The
// paper's Sweep needs only a sequential scan and an m-Oracle; an executor is
// needed twice around it: to evaluate the generating query of a SIT so the
// "actual" attribute distribution is known (the evaluation metric of Section
// 5.1 compares estimated against actual cardinalities of 1,000 range
// queries, and SweepExact must agree with it), and for the Materialize
// baseline.
//
// There is one operator family. Operators exchange fixed-size column-vector
// batches: a Batch holds one int64 slice per output column plus an optional
// selection vector, so scans serve table columns as sub-slices with no
// per-row copying, filters narrow selection vectors instead of moving data,
// and joins emit their results column-wise. PlanBatch assembles BatchScan →
// VecHashJoin (grace-partitioned under a memory budget) → BatchFilter chains
// for arbitrary connected equi-join expressions; output columns carry
// qualified names ("T.a"). A plan runs on the goroutine that drains it: the
// parallelism of SIT creation lives in the sit package's shared scans, which
// fan out through ForkJoin.
package exec

import (
	"fmt"

	"github.com/sitstats/sits/internal/data"
)

// DefaultBatchSize is the number of rows per batch. 1024 rows keep a handful
// of int64 columns resident in L1/L2 while amortizing per-batch dispatch.
const DefaultBatchSize = 1024

// MinBatchSize is the smallest batch size AdaptiveBatchSize will pick: below
// this, per-batch dispatch overhead dominates any cache-residency win.
const MinBatchSize = 64

// batchBytesTarget is the working-set budget AdaptiveBatchSize aims for: one
// batch of all columns should fit comfortably inside a 256 KiB+ L2 alongside
// the consumer's own state.
const batchBytesTarget = 128 << 10

// AdaptiveBatchSize picks a batch size from the number of int64 columns an
// operator emits, so wide join outputs stay inside L2 instead of streaming
// through it. Plans of up to 16 columns keep DefaultBatchSize (1024 rows x 16
// cols x 8 B = the 128 KiB target), so narrow plans are unaffected; wider
// outputs shrink to the next lower power of two, floored at MinBatchSize.
func AdaptiveBatchSize(ncols int) int {
	if ncols <= 0 {
		return DefaultBatchSize
	}
	rows := batchBytesTarget / (8 * ncols)
	if rows >= DefaultBatchSize {
		return DefaultBatchSize
	}
	if rows <= MinBatchSize {
		return MinBatchSize
	}
	// Round down to a power of two so batch boundaries stay cache-line and
	// chunk aligned.
	p := MinBatchSize
	for p*2 <= rows {
		p *= 2
	}
	return p
}

// Batch is a column-vector batch: Cols holds one value slice per output
// column, all of equal length. Sel, when non-nil, lists the active row
// indices in ascending order (rows not listed are filtered out); when nil,
// every row is active. Batches returned by NextBatch may reuse backing arrays
// across calls; consumers that retain values must copy them.
type Batch struct {
	Cols [][]int64
	Sel  []int32
	// rows is the physical row count of a batch without columns: a plan
	// that projects every column away (Cardinality) still has rows to count.
	rows int
}

// NumRows returns the number of active rows in the batch.
func (b *Batch) NumRows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.physRows()
}

// physRows returns the number of physical rows, ignoring Sel.
func (b *Batch) physRows() int {
	if len(b.Cols) == 0 {
		return b.rows
	}
	return len(b.Cols[0])
}

// BatchOperator is a pull-based batch iterator.
type BatchOperator interface {
	// Columns returns the qualified output column names.
	Columns() []string
	// NextBatch returns the next batch, or ok=false when exhausted. The
	// returned batch (including its backing arrays) may be reused by
	// subsequent calls.
	NextBatch() (*Batch, bool)
}

func columnIndex(cols []string, name string) (int, error) {
	for i, c := range cols {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("exec: no column %q in %v", name, cols)
}

// BatchScan serves batches directly from a table's column storage: each batch
// column is a sub-slice of the table column (no copying at all).
type BatchScan struct {
	cols  []string
	store [][]int64
	n     int // table row count
	pos   int
	size  int
	out   Batch
}

// NewBatchScan creates a batch scan over all columns of the table with an
// adaptive batch size, exposing columns qualified with the table's name. It
// panics if a column cannot be read (a damaged segment block); plans scan
// through newBatchScan, which returns the error.
func NewBatchScan(t *data.Table) *BatchScan { return NewBatchScanSize(t, 0) }

// NewBatchScanSize is NewBatchScan with an explicit batch size (0 = adaptive
// from the table's column count).
func NewBatchScanSize(t *data.Table, batchSize int) *BatchScan {
	s, err := newBatchScan(t, t.ColumnNames(), batchSize)
	if err != nil {
		panic(err)
	}
	return s
}

// newBatchScan scans only the named columns of t, in the order given, so a
// column the plan never reads is never decoded from a segment. batchSize 0
// is adaptive from the number of columns served.
func newBatchScan(t *data.Table, names []string, batchSize int) (*BatchScan, error) {
	if batchSize <= 0 {
		batchSize = AdaptiveBatchSize(len(names))
	}
	s := &BatchScan{
		cols:  make([]string, len(names)),
		store: make([][]int64, len(names)),
		n:     t.NumRows(),
		size:  batchSize,
	}
	for i, n := range names {
		col, err := t.Column(n)
		if err != nil {
			return nil, err
		}
		s.cols[i] = t.Name() + "." + n
		s.store[i] = col
	}
	s.out.Cols = make([][]int64, len(names))
	return s, nil
}

// Columns implements BatchOperator.
func (s *BatchScan) Columns() []string { return s.cols }

// NextBatch implements BatchOperator: the batch columns alias the table's
// backing storage and must not be modified.
func (s *BatchScan) NextBatch() (*Batch, bool) {
	if s.pos >= s.n {
		return nil, false
	}
	end := s.pos + s.size
	if end > s.n {
		end = s.n
	}
	for i := range s.store {
		s.out.Cols[i] = s.store[i][s.pos:end]
	}
	s.out.Sel = nil
	s.out.rows = end - s.pos
	s.pos = end
	return &s.out, true
}

// BatchFilter evaluates a row predicate over each input batch and narrows the
// selection vector; column data is never moved.
type BatchFilter struct {
	in   BatchOperator
	pred func(cols [][]int64, r int) bool
	sel  []int32
	out  Batch
}

// NewBatchFilter wraps in with a predicate over the batch's physical row r.
func NewBatchFilter(in BatchOperator, pred func(cols [][]int64, r int) bool) *BatchFilter {
	return &BatchFilter{in: in, pred: pred}
}

// Columns implements BatchOperator.
func (f *BatchFilter) Columns() []string { return f.in.Columns() }

// NextBatch implements BatchOperator: batches with no surviving rows are
// skipped, so returned batches are never empty.
func (f *BatchFilter) NextBatch() (*Batch, bool) {
	for {
		b, ok := f.in.NextBatch()
		if !ok {
			return nil, false
		}
		sel := f.sel[:0]
		if b.Sel != nil {
			for _, r := range b.Sel {
				if f.pred(b.Cols, int(r)) {
					sel = append(sel, r)
				}
			}
		} else {
			n := b.NumRows()
			for r := 0; r < n; r++ {
				if f.pred(b.Cols, r) {
					sel = append(sel, int32(r))
				}
			}
		}
		if len(sel) == 0 {
			continue
		}
		f.sel = sel
		f.out.Cols = b.Cols
		f.out.Sel = sel
		return &f.out, true
	}
}

// batchProject serves a subset of its input's columns, zero-copy: the plan's
// last operator when an equality filter still needed columns the consumer
// does not read.
type batchProject struct {
	in   BatchOperator
	idx  []int // input column of each output column
	cols []string
	out  Batch
}

// Columns implements BatchOperator.
func (p *batchProject) Columns() []string { return p.cols }

// NextBatch implements BatchOperator.
func (p *batchProject) NextBatch() (*Batch, bool) {
	b, ok := p.in.NextBatch()
	if !ok {
		return nil, false
	}
	for i, c := range p.idx {
		p.out.Cols[i] = b.Cols[c]
	}
	p.out.Sel = b.Sel
	p.out.rows = b.physRows()
	return &p.out, true
}
