package mem

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/sitstats/sits/internal/colblk"
)

// Run-store file format (SRN2). A run is a sequence of column-major batches
// of int64 values, written little-endian and checksummed per batch:
//
//	header:  magic "SRN2" (4 bytes) | ncols uint32
//	batch:   nrows uint32 | blen uint32 | body | crc32 uint32
//	body:    per column: enc uint8 | plen uint32 | colblk payload (plen bytes)
//
// where enc is a colblk encoding picked per column per batch by trial sizing
// (colblk.Choose), so sorted keys and low-cardinality columns shrink toward
// 1-2 bytes per value while incompressible payloads stay at raw size plus
// 5 bytes per column of framing. The CRC is IEEE crc32 over everything in
// the batch before it (including the nrows/blen heads), so a truncated or
// bit-flipped spill file is detected at read time instead of silently
// producing wrong statistics. Row-major payloads (join build rows, sequenced
// probe/output rows) are stored as single-column runs whose writer appends
// whole rows, so batch boundaries always align with row boundaries.

const runMagic = "SRN2"

// encScratch pools per-batch encode/decode buffers across all writers and
// readers of the process, so short-lived spill runs (one per grace-join
// partition) stop allocating a fresh frame buffer each.
var encScratch = sync.Pool{New: func() any { return new([]byte) }}

// RunStats aggregates a store's spill volume: bytes that actually hit disk
// versus the raw 8-bytes-per-value size of the same batches. The ratio is
// the codec's win on the spill path.
type RunStats struct {
	// SpilledBytes counts encoded batch bytes written, CRCs included.
	SpilledBytes int64
	// RawBytes counts the same batches at 8 bytes per value.
	RawBytes int64
}

// Ratio returns SpilledBytes/RawBytes, or 1 when nothing was written.
func (s RunStats) Ratio() float64 {
	if s.RawBytes == 0 {
		return 1
	}
	return float64(s.SpilledBytes) / float64(s.RawBytes)
}

// RunStore hands out spill files inside one temp directory. File names are
// deterministic — a zero-padded sequence number plus the caller's tag — so a
// run's identity is stable across a process run and directory listings are
// diagnosable. Close removes the directory and everything in it.
type RunStore struct {
	dir string

	written atomic.Int64
	raw     atomic.Int64

	mu  sync.Mutex
	seq int
}

// NewRunStore creates a run store rooted at dir; with dir == "" a fresh
// temp directory is created under the system temp dir.
func NewRunStore(dir string) (*RunStore, error) {
	if dir == "" {
		d, err := os.MkdirTemp("", "sits-spill-")
		if err != nil {
			return nil, fmt.Errorf("mem: create spill dir: %v", err)
		}
		dir = d
	}
	return &RunStore{dir: dir}, nil
}

// Stats returns the store's cumulative spill volume across all runs.
func (s *RunStore) Stats() RunStats {
	return RunStats{SpilledBytes: s.written.Load(), RawBytes: s.raw.Load()}
}

// Dir returns the store's spill directory.
func (s *RunStore) Dir() string { return s.dir }

// Close removes the spill directory and every run in it.
func (s *RunStore) Close() error {
	if err := os.RemoveAll(s.dir); err != nil {
		return fmt.Errorf("mem: remove spill dir: %v", err)
	}
	return nil
}

// next returns the store's next deterministic file path for tag.
func (s *RunStore) next(tag string) string {
	s.mu.Lock()
	n := s.seq
	s.seq++
	s.mu.Unlock()
	return filepath.Join(s.dir, fmt.Sprintf("%06d-%s.run", n, tag))
}

// Create opens a writer for a new run of ncols columns. tag names the run's
// role ("join-build-p3", "join-out-l0", ...) in its file name.
func (s *RunStore) Create(tag string, ncols int) (*RunWriter, error) {
	if ncols <= 0 {
		return nil, fmt.Errorf("mem: run needs at least one column, got %d", ncols)
	}
	path := s.next(tag)
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("mem: create run %s: %v", path, err)
	}
	w := &RunWriter{run: Run{store: s, path: path, ncols: ncols}, f: f}
	var hdr [8]byte
	copy(hdr[:4], runMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(ncols))
	if _, err := f.Write(hdr[:]); err != nil {
		w.abort()
		return nil, fmt.Errorf("mem: write run header: %v", err)
	}
	return w, nil
}

// Run identifies a finished spill run: its file, column count and row count.
type Run struct {
	store *RunStore
	path  string
	ncols int
	rows  int64
}

// Rows returns the number of rows written to the run.
func (r *Run) Rows() int64 { return r.rows }

// Path returns the run's file path.
func (r *Run) Path() string { return r.path }

// Remove deletes the run's file; reopening the run afterwards fails. Removing
// an already-removed run is an error surfaced to the caller, not ignored.
func (r *Run) Remove() error {
	if err := os.Remove(r.path); err != nil {
		return fmt.Errorf("mem: remove run: %v", err)
	}
	return nil
}

// RunWriter streams column batches into a run file.
type RunWriter struct {
	run     Run
	f       *os.File
	bw      *bufio.Writer
	scratch *[]byte // pooled frame buffer, returned on Finish/abort
	err     error
}

// abort closes and removes a half-written run, keeping the first error.
func (w *RunWriter) abort() {
	if w.f == nil {
		return
	}
	// Both failures matter on the error path, but the write error that led
	// here is the root cause the caller sees.
	_ = w.f.Close()
	_ = os.Remove(w.run.path)
	w.f = nil
	w.putScratch()
}

func (w *RunWriter) putScratch() {
	if w.scratch != nil {
		encScratch.Put(w.scratch)
		w.scratch = nil
	}
}

// writer returns the buffered writer, created on the first batch with a size
// derived from that batch's encoded footprint (clamped to [4KiB, 1MiB]) so
// tiny row-major runs don't carry 64KiB buffers and wide runs don't flush
// every few rows.
func (w *RunWriter) writer(batchBytes int) *bufio.Writer {
	if w.bw == nil {
		size := 1 << 12
		for size < batchBytes && size < 1<<20 {
			size <<= 1
		}
		w.bw = bufio.NewWriterSize(w.f, size)
	}
	return w.bw
}

// WriteColumns appends one batch: cols must have the run's declared column
// count, all of equal length. The batch is encoded as one SRN2 codec frame
// and checksummed; writers own their buffers, so cols may be reused
// immediately.
func (w *RunWriter) WriteColumns(cols [][]int64) error {
	if w.err != nil {
		return w.err
	}
	if len(cols) != w.run.ncols {
		return fmt.Errorf("mem: run %s: WriteColumns got %d columns, want %d", w.run.path, len(cols), w.run.ncols)
	}
	n := len(cols[0])
	for _, c := range cols[1:] {
		if len(c) != n {
			return fmt.Errorf("mem: run %s: ragged batch (%d vs %d rows)", w.run.path, len(c), n)
		}
	}
	if n == 0 {
		return nil
	}
	if w.scratch == nil {
		w.scratch = encScratch.Get().(*[]byte)
	}
	buf := w.encodeFrame((*w.scratch)[:0], cols, n)
	*w.scratch = buf[:0]
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(buf))
	bw := w.writer(len(buf) + 4)
	if _, err := bw.Write(buf); err == nil {
		_, w.err = bw.Write(tail[:])
	} else {
		w.err = err
	}
	if w.err != nil {
		w.abort()
		return fmt.Errorf("mem: write run %s: %v", w.run.path, w.err)
	}
	w.run.rows += int64(n)
	w.run.store.written.Add(int64(len(buf) + 4))
	w.run.store.raw.Add(int64(8 * n * w.run.ncols))
	return nil
}

// encodeFrame builds an SRN2 batch frame (heads + per-column codec blocks)
// in buf, excluding the trailing CRC.
func (w *RunWriter) encodeFrame(buf []byte, cols [][]int64, n int) []byte {
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // nrows, blen back-patched below
	for _, c := range cols {
		enc, size := colblk.Choose(c)
		var ch [5]byte
		ch[0] = enc
		binary.LittleEndian.PutUint32(ch[1:], uint32(size))
		buf = append(buf, ch[:]...)
		buf = colblk.Append(buf, enc, c)
	}
	binary.LittleEndian.PutUint32(buf, uint32(n))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(buf)-8))
	return buf
}

// Finish flushes and closes the run file, returning the immutable run
// handle.
func (w *RunWriter) Finish() (*Run, error) {
	if w.err != nil {
		return nil, w.err
	}
	w.putScratch()
	if w.bw != nil {
		if err := w.bw.Flush(); err != nil {
			w.err = err
			w.abort()
			return nil, fmt.Errorf("mem: flush run %s: %v", w.run.path, err)
		}
	}
	if err := w.f.Close(); err != nil {
		w.err = err
		// The file is already closed (possibly with lost data); remove it so
		// a later Open cannot read a torn run.
		_ = os.Remove(w.run.path)
		w.f = nil
		return nil, fmt.Errorf("mem: close run %s: %v", w.run.path, err)
	}
	w.f = nil
	run := w.run
	return &run, nil
}

// Open opens the run for sequential reading; a file whose magic is not SRN2
// is rejected.
func (r *Run) Open() (*RunReader, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return nil, fmt.Errorf("mem: open run: %v", err)
	}
	rd := &RunReader{f: f, br: bufio.NewReaderSize(f, 1<<16)}
	var hdr [8]byte
	if _, err := io.ReadFull(rd.br, hdr[:]); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("mem: read run header %s: %v", r.path, err)
	}
	if string(hdr[:4]) != runMagic {
		_ = f.Close()
		return nil, fmt.Errorf("mem: run %s: bad magic %q", r.path, hdr[:4])
	}
	nc := int(binary.LittleEndian.Uint32(hdr[4:]))
	if nc != r.ncols {
		_ = f.Close()
		return nil, fmt.Errorf("mem: run %s: header says %d columns, handle says %d", r.path, nc, r.ncols)
	}
	rd.ncols = nc
	rd.path = r.path
	rd.cols = make([][]int64, nc)
	return rd, nil
}

// RunReader streams a run's batches back in write order.
type RunReader struct {
	f       *os.File
	br      *bufio.Reader
	path    string
	ncols   int
	cols    [][]int64
	scratch []byte
}

// Next returns the next batch's columns, or io.EOF after the last batch. The
// returned slices are reused by the following Next call. It reads one SRN2
// frame: slurp the whole frame by its declared length, verify the CRC, then
// decode the per-column codec blocks.
func (r *RunReader) Next() ([][]int64, error) {
	var head [8]byte
	if _, err := io.ReadFull(r.br, head[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("mem: read run %s: %v", r.path, err)
	}
	n := int(binary.LittleEndian.Uint32(head[:]))
	blen := int(binary.LittleEndian.Uint32(head[4:]))
	need := blen + 4
	if cap(r.scratch) < need {
		r.scratch = make([]byte, need)
	}
	buf := r.scratch[:need]
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return nil, fmt.Errorf("mem: run %s truncated: %v", r.path, err)
	}
	sum := crc32.ChecksumIEEE(head[:])
	sum = crc32.Update(sum, crc32.IEEETable, buf[:blen])
	if got := binary.LittleEndian.Uint32(buf[blen:]); got != sum {
		return nil, fmt.Errorf("mem: run %s: batch checksum mismatch (file %08x, computed %08x)", r.path, got, sum)
	}
	body := buf[:blen]
	off := 0
	for c := 0; c < r.ncols; c++ {
		if off+5 > len(body) {
			return nil, fmt.Errorf("mem: run %s: batch body truncated at column %d", r.path, c)
		}
		enc := body[off]
		plen := int(binary.LittleEndian.Uint32(body[off+1:]))
		off += 5
		if plen < 0 || off+plen > len(body) {
			return nil, fmt.Errorf("mem: run %s: column %d payload overruns batch body", r.path, c)
		}
		col, err := colblk.Decode(r.cols[c], enc, body[off:off+plen], n)
		if err != nil {
			return nil, fmt.Errorf("mem: run %s: decode column %d: %w", r.path, c, err)
		}
		r.cols[c] = col
		off += plen
	}
	if off != len(body) {
		return nil, fmt.Errorf("mem: run %s: %d trailing bytes after last column", r.path, len(body)-off)
	}
	return r.cols, nil
}

// Close closes the underlying file.
func (r *RunReader) Close() error {
	if r.f == nil {
		return nil
	}
	f := r.f
	r.f = nil
	if err := f.Close(); err != nil {
		return fmt.Errorf("mem: close run %s: %v", r.path, err)
	}
	return nil
}
