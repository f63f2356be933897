package exec

import "github.com/sitstats/sits/internal/radix"

// BatchSort materializes its input column-wise and sorts it by one column
// ascending: the key column is radix-sorted carrying an int32 row
// permutation, and every other column is gathered once through it. The sort
// is stable (rows with equal keys keep their input order), presorted input is
// served as drained, and output batches are zero-copy sub-slices of the
// sorted columns.
type BatchSort struct {
	in   BatchOperator
	idx  int
	size int

	sorted bool
	cols   [][]int64
	n      int
	pos    int
	out    Batch
}

// NewBatchSort sorts in by col ascending, with an adaptive batch size derived
// from the output width.
func NewBatchSort(in BatchOperator, col string) (*BatchSort, error) {
	return NewBatchSortSize(in, col, 0)
}

// NewBatchSortSize is NewBatchSort with an explicit batch size (0 = adaptive).
func NewBatchSortSize(in BatchOperator, col string, batchSize int) (*BatchSort, error) {
	i, err := columnIndex(in.Columns(), col)
	if err != nil {
		return nil, err
	}
	if batchSize <= 0 {
		batchSize = AdaptiveBatchSize(len(in.Columns()))
	}
	s := &BatchSort{in: in, idx: i, size: batchSize}
	s.out.Cols = make([][]int64, len(in.Columns()))
	return s, nil
}

// Columns implements BatchOperator.
func (s *BatchSort) Columns() []string { return s.in.Columns() }

// sort drains the input into owned column vectors and puts them in key
// order.
func (s *BatchSort) sort() {
	s.sorted = true
	cols := make([][]int64, len(s.out.Cols))
	for {
		b, ok := s.in.NextBatch()
		if !ok {
			break
		}
		for c, col := range b.Cols {
			if b.Sel == nil {
				cols[c] = append(cols[c], col...)
				continue
			}
			for _, r := range b.Sel {
				cols[c] = append(cols[c], col[r])
			}
		}
	}
	s.cols = cols
	key := cols[s.idx]
	s.n = len(key)
	presorted := true
	for i := 1; i < s.n; i++ {
		if key[i] < key[i-1] {
			presorted = false
			break
		}
	}
	if presorted {
		return
	}
	// The drained key column is the sort's own copy, so the kernel may
	// clobber it; the sorted keys come back in it or in tmp.
	perm := make([]int32, 2*s.n)
	for i := range perm[:s.n] {
		perm[i] = int32(i)
	}
	sortedKey, p := radix.Sort(key, make([]int64, s.n), perm[:s.n], perm[s.n:])
	for c, src := range cols {
		if c == s.idx {
			cols[c] = sortedKey
			continue
		}
		dst := make([]int64, s.n)
		for i, r := range p {
			dst[i] = src[r]
		}
		cols[c] = dst
	}
}

// NextBatch implements BatchOperator: batches are sub-slices of the sorted
// columns (no copying after the sort).
func (s *BatchSort) NextBatch() (*Batch, bool) {
	if !s.sorted {
		s.sort()
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
