package exec

import (
	"fmt"
	"io"

	"github.com/sitstats/sits/internal/mem"
)

// This file holds the grace join's spill pieces: streaming cursors over
// run-store files and the loser-tree k-way merge that recombines spilled
// output runs. BatchOperator carries no error channel, so spill I/O failures
// (disk full, torn file, checksum mismatch) surface as panics wrapping the
// underlying error; they are unrecoverable mid-plan.

// spillBatchRows is the row granularity of spilled batches: small enough
// that per-run streaming read buffers stay a few KiB, large enough to
// amortize the per-batch CRC and syscall cost.
const spillBatchRows = 1024

// spillFail aborts the plan on an unrecoverable spill I/O error.
func spillFail(context string, err error) {
	panic(fmt.Errorf("exec: spill %s: %w", context, err))
}

// colCursor streams a column-major sorted run row by row. cols holds the
// current batch; advancing past it pulls the next batch from the reader.
type colCursor struct {
	rd   *mem.RunReader
	cols [][]int64
	pos  int
	n    int
	done bool
}

func openColCursor(run *mem.Run) *colCursor {
	rd, err := run.Open()
	if err != nil {
		spillFail("open sorted run", err)
	}
	c := &colCursor{rd: rd}
	c.fill()
	return c
}

// fill loads the next batch, marking the cursor done (and closing the
// reader) at end of run.
func (c *colCursor) fill() {
	cols, err := c.rd.Next()
	if err == io.EOF {
		c.done = true
		if cerr := c.rd.Close(); cerr != nil {
			spillFail("close sorted run", cerr)
		}
		return
	}
	if err != nil {
		spillFail("read sorted run", err)
	}
	c.cols = cols
	c.pos = 0
	c.n = 0
	if len(cols) > 0 {
		c.n = len(cols[0])
	}
}

// advance steps one row forward.
//
//statcheck:hot
func (c *colCursor) advance() {
	c.pos++
	if c.pos >= c.n {
		c.fill()
	}
}

// rowCursor streams a flat row-major run (single-column run whose values are
// whole rows of a fixed stride). The first value of each row is its merge
// key (the probe sequence number for grace-join output runs).
type rowCursor struct {
	rd     *mem.RunReader
	buf    []int64
	pos    int // current row offset, in rows
	n      int // rows in buf
	stride int
	done   bool
}

func openRowCursor(run *mem.Run, stride int) *rowCursor {
	rd, err := run.Open()
	if err != nil {
		spillFail("open row run", err)
	}
	c := &rowCursor{rd: rd, stride: stride}
	c.fill()
	return c
}

func (c *rowCursor) fill() {
	cols, err := c.rd.Next()
	if err == io.EOF {
		c.done = true
		if cerr := c.rd.Close(); cerr != nil {
			spillFail("close row run", cerr)
		}
		return
	}
	if err != nil {
		spillFail("read row run", err)
	}
	c.buf = cols[0]
	if len(c.buf)%c.stride != 0 {
		spillFail("read row run", fmt.Errorf("chunk of %d values not a multiple of stride %d", len(c.buf), c.stride))
	}
	c.pos = 0
	c.n = len(c.buf) / c.stride
}

// row returns the current row; valid until the next advance.
//
//statcheck:hot
func (c *rowCursor) row() []int64 {
	off := c.pos * c.stride
	return c.buf[off : off+c.stride]
}

// key returns the current row's merge key (first value).
//
//statcheck:hot
func (c *rowCursor) key() int64 { return c.buf[c.pos*c.stride] }

//statcheck:hot
func (c *rowCursor) advance() {
	c.pos++
	if c.pos >= c.n {
		c.fill()
	}
}

// loserTree is a tournament tree over k merge cursors: the winner (smallest
// current key) is read in O(1) and replayed along a single leaf-to-root path
// in O(log k) after it advances — the classic structure for external merge
// because each replay does exactly one comparison per level, against the
// heap's two.
//
// The tree works on cursor indices through a caller-provided ordering; the
// grace join merges its output runs by the unique probe sequence number.
// Indices >= n are padding leaves; less must order exhausted and padding
// cursors after every live one.
type loserTree struct {
	k    int     // leaf count, power of two
	tree []int32 // tree[0] = overall winner; tree[1..k-1] = losers
	less func(a, b int) bool
}

// newLoserTree builds the tree over n cursors. less(a, b) reports whether
// cursor a's current row merges before cursor b's; it is also called with
// padding indices in [n, nextPow2(n)).
func newLoserTree(n int, less func(a, b int) bool) *loserTree {
	k := nextPow2(n)
	if k < 1 {
		k = 1
	}
	lt := &loserTree{k: k, tree: make([]int32, k), less: less}
	if k == 1 {
		lt.tree[0] = 0
		return lt
	}
	// Play the initial tournament bottom-up: winners[j] is the winner of the
	// subtree rooted at node j (leaves are nodes k..2k-1, mapping to cursor
	// j-k); each internal node stores its loser.
	winners := make([]int32, 2*k)
	for i := 0; i < k; i++ {
		winners[k+i] = int32(i)
	}
	for j := k - 1; j >= 1; j-- {
		a, b := winners[2*j], winners[2*j+1]
		if less(int(a), int(b)) {
			winners[j] = a
			lt.tree[j] = b
		} else {
			winners[j] = b
			lt.tree[j] = a
		}
	}
	lt.tree[0] = winners[1]
	return lt
}

// winner returns the index of the cursor with the smallest current row.
//
//statcheck:hot
func (lt *loserTree) winner() int { return int(lt.tree[0]) }

// fix replays the tournament along the winner's leaf-to-root path after the
// winning cursor advanced (or finished).
//
//statcheck:hot
func (lt *loserTree) fix() {
	if lt.k == 1 {
		return
	}
	w := lt.tree[0]
	for j := (lt.k + int(w)) / 2; j >= 1; j /= 2 {
		if lt.less(int(lt.tree[j]), int(w)) {
			w, lt.tree[j] = lt.tree[j], w
		}
	}
	lt.tree[0] = w
}
