package data

import (
	"fmt"

	"github.com/sitstats/sits/internal/mem"
)

// ChunkReader streams a table's rows as fixed-grid chunks in ascending Seq
// order. A returned Chunk (and its column slices) is valid until the next
// Next or Close call; readers over in-memory tables hand out zero-copy
// sub-slices, readers over segment-backed tables reuse per-reader decode
// buffers. Next reports done=false with a nil error when the window is
// exhausted.
type ChunkReader interface {
	Next() (c Chunk, ok bool, err error)
	Close() error
}

// RangeFilter asks a chunk reader to skip chunks that provably contain no
// row with Column's value in [Lo, Hi]. Skipping is best-effort — segment
// readers consult per-block min/max footers, in-memory readers skip nothing
// — so consumers must still filter rows; the filter only reduces decoded
// and streamed data. Skipped chunks leave gaps in the Seq sequence (the grid
// itself never shifts).
type RangeFilter struct {
	Column string
	Lo, Hi int64
}

// ScanSpec configures OpenChunksSpec: an optional memory grant that accounts
// the reader's decode scratch, an optional range filter for block skipping,
// and a chunk-index window.
type ScanSpec struct {
	// Grant accounts segment decode buffers (Force on open, released on
	// Close). nil means un-budgeted.
	Grant *mem.Grant
	// Filter enables block skipping; see RangeFilter.
	Filter *RangeFilter
	// Lo and Hi bound the chunk indexes streamed: [Lo, Hi). Hi <= 0 means
	// NumChunks(chunkSize). Parallel scans give each worker its own window
	// over one shared grid, so Seq values stay global.
	Lo, Hi int
}

// NumChunks returns the number of chunks a chunkSize-grid scan yields; the
// grid depends only on the table size, never on the consumer.
func (t *Table) NumChunks(chunkSize int) int {
	if chunkSize <= 0 {
		return 0
	}
	return (t.NumRows() + chunkSize - 1) / chunkSize
}

// OpenChunks streams the whole table as chunks over the named columns; see
// OpenChunksSpec.
func (t *Table) OpenChunks(chunkSize int, columns ...string) (ChunkReader, error) {
	return t.OpenChunksSpec(chunkSize, ScanSpec{}, columns...)
}

// OpenChunksSpec opens a streaming chunk reader over the named columns.
// Chunk Seq covers rows [Seq*chunkSize, min((Seq+1)*chunkSize, NumRows)): the
// grid depends only on the table size and chunkSize — not on the backing
// store or on who consumes the chunks — so chunked consumers that merge
// per-chunk partials in Seq order get the same result whether the table is
// in-memory or segment-backed, at any parallelism. An empty table yields no
// chunks. A segment-backed table is never materialized: blocks decode on
// demand into reader-owned buffers.
func (t *Table) OpenChunksSpec(chunkSize int, spec ScanSpec, columns ...string) (ChunkReader, error) {
	if chunkSize <= 0 {
		return nil, fmt.Errorf("data: table %q: chunk size %d must be positive", t.name, chunkSize)
	}
	if len(columns) == 0 {
		return nil, fmt.Errorf("data: table %q: scan needs at least one column", t.name)
	}
	n := t.NumChunks(chunkSize)
	lo, hi := spec.Lo, spec.Hi
	if hi <= 0 || hi > n {
		hi = n
	}
	if lo < 0 {
		lo = 0
	}
	if lo > hi {
		lo = hi
	}
	if t.seg != nil && !t.materialized() {
		return t.seg.openChunks(chunkSize, lo, hi, spec, columns...)
	}
	cols := make([][]int64, len(columns))
	for i, c := range columns {
		vals, err := t.Column(c)
		if err != nil {
			return nil, err
		}
		cols[i] = vals
	}
	// In-memory tables ignore the filter: there are no block statistics, so
	// nothing is provably skippable.
	return &memChunkReader{cols: cols, chunkSize: chunkSize, nrows: t.NumRows(), next: lo, hi: hi,
		sub: make([][]int64, len(cols))}, nil
}

// memChunkReader yields zero-copy sub-slice chunks of in-memory columns.
type memChunkReader struct {
	cols      [][]int64
	sub       [][]int64
	chunkSize int
	nrows     int
	next, hi  int
}

func (r *memChunkReader) Next() (Chunk, bool, error) {
	if r.next >= r.hi {
		return Chunk{}, false, nil
	}
	ci := r.next
	r.next++
	start := ci * r.chunkSize
	end := start + r.chunkSize
	if end > r.nrows {
		end = r.nrows
	}
	for i := range r.cols {
		r.sub[i] = r.cols[i][start:end]
	}
	return Chunk{Start: start, Seq: ci, Cols: r.sub}, true, nil
}

func (r *memChunkReader) Close() error { return nil }

// openChunks builds a streaming reader over the segment's blocks.
func (s *Segment) openChunks(chunkSize, lo, hi int, spec ScanSpec, columns ...string) (ChunkReader, error) {
	r := &segChunkReader{
		seg:       s,
		colIdx:    make([]int, len(columns)),
		chunkSize: chunkSize,
		next:      lo,
		hi:        hi,
		filterCol: -1,
		decGroup:  -1,
		grant:     spec.Grant,
		dec:       make([][]int64, len(columns)),
		out:       make([][]int64, len(columns)),
	}
	for i, c := range columns {
		ci, err := s.columnIndex(c)
		if err != nil {
			return nil, err
		}
		r.colIdx[i] = ci
	}
	if f := spec.Filter; f != nil {
		ci, err := s.columnIndex(f.Column)
		if err != nil {
			return nil, err
		}
		r.filterCol, r.filterLo, r.filterHi = ci, f.Lo, f.Hi
	}
	// Account the reader's worst-case scratch: one decoded group per
	// requested column, the shared encoded-block buffer, and — when the
	// chunk grid is not block-aligned — per-column assembly buffers.
	r.reserved = int64(len(columns))*int64(s.blockRows)*8 + int64(s.maxPlen+4)
	if chunkSize != s.blockRows {
		r.reserved += int64(len(columns)) * int64(chunkSize) * 8
	}
	r.grant.Force(r.reserved)
	return r, nil
}

// segChunkReader streams chunks by decoding segment blocks on demand. One
// decoded row group per column is cached, so a grid finer than the block
// height decodes each block once, and the block-aligned grid (chunkSize ==
// BlockRows) hands decoded blocks out directly with no assembly copy.
type segChunkReader struct {
	seg       *Segment
	colIdx    []int
	chunkSize int
	next, hi  int

	filterCol          int
	filterLo, filterHi int64

	decGroup int       // group currently decoded in dec, -1 if none
	dec      [][]int64 // per requested column: decoded group values
	asm      [][]int64 // per requested column: assembly buffers
	out      [][]int64 // the Cols slice handed out, rebound per chunk
	scratch  []byte

	grant    *mem.Grant
	reserved int64
	closed   bool
}

// groupRange returns the first and last group indexes covering rows
// [start, end). Groups before the last are always full (blockRows rows), so
// the mapping is a plain division.
func (r *segChunkReader) groupRange(start, end int) (g0, g1 int) {
	return start / r.seg.blockRows, (end - 1) / r.seg.blockRows
}

// skippable reports whether every group covering the chunk provably misses
// the range filter.
func (r *segChunkReader) skippable(g0, g1 int) bool {
	if r.filterCol < 0 {
		return false
	}
	for g := g0; g <= g1; g++ {
		if r.seg.groupOverlaps(g, r.filterCol, r.filterLo, r.filterHi) {
			return false
		}
	}
	return true
}

// decodeGroup decodes group g for every requested column into r.dec.
func (r *segChunkReader) decodeGroup(g int) error {
	if r.decGroup == g {
		return nil
	}
	for i, c := range r.colIdx {
		var err error
		r.dec[i], r.scratch, err = r.seg.readBlock(g, c, r.dec[i], r.scratch)
		if err != nil {
			r.decGroup = -1
			return err
		}
	}
	r.decGroup = g
	return nil
}

func (r *segChunkReader) Next() (Chunk, bool, error) {
	nrows := int(r.seg.nrows)
	for r.next < r.hi {
		ci := r.next
		r.next++
		start := ci * r.chunkSize
		end := start + r.chunkSize
		if end > nrows {
			end = nrows
		}
		g0, g1 := r.groupRange(start, end)
		if r.skippable(g0, g1) {
			continue
		}
		if g0 == g1 {
			if err := r.decodeGroup(g0); err != nil {
				return Chunk{}, false, err
			}
			off := start - g0*r.seg.blockRows
			for i := range r.out {
				r.out[i] = r.dec[i][off : off+(end-start)]
			}
			return Chunk{Start: start, Seq: ci, Cols: r.out}, true, nil
		}
		// The chunk spans a group boundary: assemble it column-major from
		// each overlapped group's decoded block.
		if r.asm == nil {
			r.asm = make([][]int64, len(r.colIdx))
			for i := range r.asm {
				r.asm[i] = make([]int64, r.chunkSize)
			}
		}
		filled := 0
		for g := g0; g <= g1; g++ {
			if err := r.decodeGroup(g); err != nil {
				return Chunk{}, false, err
			}
			gStart := g * r.seg.blockRows
			from := start + filled - gStart
			take := len(r.dec[0]) - from
			if take > end-(start+filled) {
				take = end - (start + filled)
			}
			for i := range r.asm {
				copy(r.asm[i][filled:filled+take], r.dec[i][from:from+take])
			}
			filled += take
		}
		for i := range r.out {
			r.out[i] = r.asm[i][:filled]
		}
		return Chunk{Start: start, Seq: ci, Cols: r.out}, true, nil
	}
	return Chunk{}, false, nil
}

func (r *segChunkReader) Close() error {
	if !r.closed {
		r.closed = true
		r.grant.Release(r.reserved)
	}
	return nil
}
