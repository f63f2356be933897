package exec

import (
	"fmt"
	"io"

	"github.com/sitstats/sits/internal/mem"
)

// This file holds the grace join's spill read path: a cursor that streams a
// partition run back row by row. BatchOperator carries no error channel, so
// spill I/O failures (disk full, torn file, checksum mismatch) surface as
// panics wrapping the underlying error; they are unrecoverable mid-plan.

// spillBatchRows is the row granularity of spilled batches: small enough
// that per-run streaming read buffers stay a few KiB, large enough to
// amortize the per-batch CRC and syscall cost.
const spillBatchRows = 1024

// spillFail aborts the plan on an unrecoverable spill I/O error.
func spillFail(context string, err error) {
	panic(fmt.Errorf("exec: spill %s: %w", context, err))
}

// rowCursor streams a flat row-major run (single-column run whose values are
// whole rows of a fixed stride).
type rowCursor struct {
	rd     *mem.RunReader
	buf    []int64
	pos    int // current row offset, in rows
	n      int // rows in buf
	stride int
	done   bool
}

// openCursor opens a row cursor over run. The reader is recorded before the
// first read, so close can shut it even if that read fails.
func (g *graceJoin) openCursor(run *mem.Run, stride int) *rowCursor {
	rd, err := run.Open()
	if err != nil {
		spillFail("open row run", err)
	}
	g.rd = rd
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

//statcheck:hot
func (c *rowCursor) advance() {
	c.pos++
	if c.pos >= c.n {
		c.fill()
	}
}
