package data

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"github.com/sitstats/sits/internal/colblk"
)

// Segment file format (SEG1). A segment is the disk-native columnar form of
// one table: rows are split into fixed-size row groups (DefaultBlockRows
// rows), and each group stores one block per column, encoded independently
// with the cheapest colblk encoding picked by trial sizing. Blocks are
// CRC32-checked like spill runs, and the footer carries per-block
// min/max so scans can skip blocks that cannot match a range filter —
// streaming chunks straight off disk without ever materializing the table:
//
//	file:    magic "SEG1" (4 bytes) | blocks... | footer | trailer
//	block:   colblk payload (plen bytes) | crc32 uint32 (over the payload)
//	trailer: footerLen uint32 | footerCRC uint32 | magic "SEG1" (4 bytes)
//
// The footer (one blob, checksummed as a whole by footerCRC) holds:
//
//	name    uint16 len | bytes           table name
//	ncols   uint32, then per column:     uint16 len | bytes
//	nrows   uint64
//	blockRows uint32                     rows per full row group
//	ngroups uint32, then per group:
//	  count uint32                       rows in the group (< blockRows only
//	                                     for the final group)
//	  per column: off uint64 | plen uint32 | enc uint8 | min int64 | max int64
//
// Opening a segment reads and verifies only the footer; block payloads are
// fetched (and CRC-verified) on demand with ReadAt, so concurrent readers
// share one file handle.

const (
	segMagic = "SEG1"
	// DefaultBlockRows is the row-group height. It matches the shared-scan
	// chunk granularity (sit.scanChunkRows), so streamed scans hit the
	// aligned block-per-chunk fast path.
	DefaultBlockRows = 4096
	// segTrailerLen is footerLen + footerCRC + magic.
	segTrailerLen = 12
)

// blockMeta locates and describes one column block within a row group.
type blockMeta struct {
	off      int64
	plen     uint32
	enc      byte
	min, max int64
}

// segGroup is one row group's footer entry: its row count, the table row
// index of its first row, and one block per column.
type segGroup struct {
	count  int
	start  int64
	blocks []blockMeta
}

// SegmentWriter streams a table into a segment file, buffering at most one
// row group in memory.
type SegmentWriter struct {
	f         *os.File
	bw        *bufio.Writer
	path      string
	name      string
	cols      []string
	blockRows int
	forceRaw  bool
	fork      func(n int, task func(i int))

	pend    [][]int64 // buffered rows per column, < blockRows
	encBufs [][]byte  // per-column encode scratch: payload | crc
	metas   []blockMeta
	off     int64
	nrows   int64
	groups  []segGroup
	err     error
}

// CreateSegment opens a segment writer at path for a table with the given
// name and columns. Column names must be unique and non-empty.
func CreateSegment(path, name string, columns []string) (*SegmentWriter, error) {
	if name == "" {
		return nil, fmt.Errorf("data: segment table name must not be empty")
	}
	if len(columns) == 0 {
		return nil, fmt.Errorf("data: segment %q must have at least one column", name)
	}
	seen := make(map[string]bool, len(columns))
	for _, c := range columns {
		if c == "" {
			return nil, fmt.Errorf("data: segment %q: column name must not be empty", name)
		}
		if seen[c] {
			return nil, fmt.Errorf("data: segment %q: duplicate column %q", name, c)
		}
		seen[c] = true
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("data: create segment: %v", err)
	}
	w := &SegmentWriter{
		f:         f,
		bw:        bufio.NewWriterSize(f, 1<<18),
		path:      path,
		name:      name,
		cols:      append([]string(nil), columns...),
		blockRows: DefaultBlockRows,
		fork:      func(n int, task func(int)) { serialFork(n, task) },
		pend:      make([][]int64, len(columns)),
		encBufs:   make([][]byte, len(columns)),
		metas:     make([]blockMeta, len(columns)),
	}
	if _, err := w.bw.WriteString(segMagic); err != nil {
		w.abort()
		return nil, fmt.Errorf("data: write segment header: %v", err)
	}
	w.off = 4
	return w, nil
}

func serialFork(n int, task func(int)) {
	for i := 0; i < n; i++ {
		task(i)
	}
}

// ColumnNames returns the writer's column names in schema order.
func (w *SegmentWriter) ColumnNames() []string { return append([]string(nil), w.cols...) }

// SetBlockRows overrides the row-group height; it must be called before the
// first Append. Values below 1 keep the default.
func (w *SegmentWriter) SetBlockRows(n int) {
	if n > 0 && w.nrows == 0 {
		w.blockRows = n
	}
}

// SetForceRaw disables the codec, storing every block with EncRaw; used by
// benchmarks to measure the compression win.
func (w *SegmentWriter) SetForceRaw(on bool) { w.forceRaw = on }

// SetFork installs a parallel fork-join callback (fork(n, task) must run
// task(0..n-1) to completion before returning) used to encode the columns of
// a row group concurrently. The default encodes serially; callers that
// want parallel encodes inject exec.ForkJoin here, keeping this package free
// of an executor dependency.
func (w *SegmentWriter) SetFork(fork func(n int, task func(i int))) {
	if fork != nil {
		w.fork = fork
	}
}

// abort closes and removes a half-written segment.
func (w *SegmentWriter) abort() {
	if w.f == nil {
		return
	}
	_ = w.f.Close()
	_ = os.Remove(w.path)
	w.f = nil
}

// Append adds a column-major batch of rows: cols[i] belongs to the i-th
// declared column and all slices must have equal length. Full row groups are
// encoded and flushed as they accumulate; the caller may reuse cols.
func (w *SegmentWriter) Append(cols [][]int64) error {
	if w.err != nil {
		return w.err
	}
	if len(cols) != len(w.cols) {
		return fmt.Errorf("data: segment %q: Append got %d columns, want %d", w.name, len(cols), len(w.cols))
	}
	n := len(cols[0])
	for _, c := range cols[1:] {
		if len(c) != n {
			return fmt.Errorf("data: segment %q: ragged batch (%d vs %d rows)", w.name, len(c), n)
		}
	}
	done := 0
	for done < n {
		if len(w.pend[0]) == 0 && n-done >= w.blockRows {
			// Aligned fast path: encode a full group straight from the
			// caller's batch, no buffering copy.
			sub := make([][]int64, len(cols))
			for i := range cols {
				sub[i] = cols[i][done : done+w.blockRows]
			}
			if err := w.flushGroup(sub, w.blockRows); err != nil {
				return err
			}
			done += w.blockRows
			continue
		}
		take := w.blockRows - len(w.pend[0])
		if take > n-done {
			take = n - done
		}
		for i := range cols {
			w.pend[i] = append(w.pend[i], cols[i][done:done+take]...)
		}
		done += take
		if len(w.pend[0]) == w.blockRows {
			if err := w.flushGroup(w.pend, w.blockRows); err != nil {
				return err
			}
			for i := range w.pend {
				w.pend[i] = w.pend[i][:0]
			}
		}
	}
	return nil
}

// AppendTable appends every row of t (which must have exactly the writer's
// columns, in order).
func (w *SegmentWriter) AppendTable(t *Table) error {
	cols := make([][]int64, len(w.cols))
	for i, name := range w.cols {
		vals, err := t.Column(name)
		if err != nil {
			return err
		}
		cols[i] = vals
	}
	return w.Append(cols)
}

// flushGroup encodes one row group (n rows per column) and writes its
// blocks. Column encoding fans out through the injected fork callback; the
// sequential write afterwards assigns offsets.
func (w *SegmentWriter) flushGroup(cols [][]int64, n int) error {
	w.fork(len(cols), func(c int) {
		vals := cols[c][:n]
		enc, size := colblk.Choose(vals)
		if w.forceRaw {
			enc, size = colblk.EncRaw, 8*n
		}
		buf := colblk.Append(w.encBufs[c][:0], enc, vals)
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(buf))
		buf = append(buf, tail[:]...)
		w.encBufs[c] = buf
		minV, maxV := colblk.MinMax(vals)
		w.metas[c] = blockMeta{plen: uint32(size), enc: enc, min: minV, max: maxV}
	})
	g := segGroup{count: n, start: w.nrows, blocks: make([]blockMeta, len(cols))}
	for c := range cols {
		w.metas[c].off = w.off
		g.blocks[c] = w.metas[c]
		if _, err := w.bw.Write(w.encBufs[c]); err != nil {
			w.err = err
			w.abort()
			return fmt.Errorf("data: write segment %s: %v", w.path, err)
		}
		w.off += int64(len(w.encBufs[c]))
	}
	w.groups = append(w.groups, g)
	w.nrows += int64(n)
	return nil
}

// Finish flushes the final partial group, writes the footer and trailer, and
// closes the file.
func (w *SegmentWriter) Finish() error {
	if w.err != nil {
		return w.err
	}
	if len(w.pend[0]) > 0 {
		if err := w.flushGroup(w.pend, len(w.pend[0])); err != nil {
			return err
		}
	}
	footer := w.encodeFooter()
	var trailer [segTrailerLen]byte
	binary.LittleEndian.PutUint32(trailer[:], uint32(len(footer)))
	binary.LittleEndian.PutUint32(trailer[4:], crc32.ChecksumIEEE(footer))
	copy(trailer[8:], segMagic)
	if _, err := w.bw.Write(footer); err == nil {
		_, w.err = w.bw.Write(trailer[:])
	} else {
		w.err = err
	}
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	if w.err != nil {
		w.abort()
		return fmt.Errorf("data: write segment footer %s: %v", w.path, w.err)
	}
	if err := w.f.Close(); err != nil {
		_ = os.Remove(w.path)
		w.f = nil
		return fmt.Errorf("data: close segment %s: %v", w.path, err)
	}
	w.f = nil
	return nil
}

func appendString16(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func (w *SegmentWriter) encodeFooter() []byte {
	var buf []byte
	buf = appendString16(buf, w.name)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w.cols)))
	for _, c := range w.cols {
		buf = appendString16(buf, c)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.nrows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(w.blockRows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w.groups)))
	for _, g := range w.groups {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(g.count))
		for _, b := range g.blocks {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(b.off))
			buf = binary.LittleEndian.AppendUint32(buf, b.plen)
			buf = append(buf, b.enc)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(b.min))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(b.max))
		}
	}
	return buf
}

// WriteSegment writes an in-memory table to a segment file at path.
func WriteSegment(path string, t *Table) error {
	w, err := CreateSegment(path, t.Name(), t.ColumnNames())
	if err != nil {
		return err
	}
	if err := w.AppendTable(t); err != nil {
		w.abort()
		return err
	}
	return w.Finish()
}

// Segment is an open, read-only segment file: the parsed footer plus a
// shared file handle. Block reads go through ReadAt, so a Segment is safe
// for concurrent readers.
type Segment struct {
	f         *os.File
	path      string
	name      string
	cols      []string
	byName    map[string]int
	blockRows int
	nrows     int64
	groups    []segGroup
	maxPlen   int
}

// OpenSegment opens and verifies the segment at path. Only the footer is
// read; blocks stream on demand.
func OpenSegment(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("data: open segment: %v", err)
	}
	s, err := parseSegment(f, path)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return s, nil
}

func parseSegment(f *os.File, path string) (*Segment, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("data: segment %s: %v", path, err)
	}
	size := fi.Size()
	if size < 4+segTrailerLen {
		return nil, fmt.Errorf("data: segment %s: too short (%d bytes)", path, size)
	}
	var head [4]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return nil, fmt.Errorf("data: segment %s: read header: %v", path, err)
	}
	if string(head[:]) != segMagic {
		return nil, fmt.Errorf("data: segment %s: bad magic %q", path, head[:])
	}
	var trailer [segTrailerLen]byte
	if _, err := f.ReadAt(trailer[:], size-segTrailerLen); err != nil {
		return nil, fmt.Errorf("data: segment %s: read trailer: %v", path, err)
	}
	if string(trailer[8:]) != segMagic {
		return nil, fmt.Errorf("data: segment %s: bad trailer magic %q", path, trailer[8:])
	}
	flen := int64(binary.LittleEndian.Uint32(trailer[:]))
	fcrc := binary.LittleEndian.Uint32(trailer[4:])
	if flen <= 0 || flen > size-4-segTrailerLen {
		return nil, fmt.Errorf("data: segment %s: footer length %d out of range", path, flen)
	}
	footer := make([]byte, flen)
	if _, err := f.ReadAt(footer, size-segTrailerLen-flen); err != nil {
		return nil, fmt.Errorf("data: segment %s: read footer: %v", path, err)
	}
	if got := crc32.ChecksumIEEE(footer); got != fcrc {
		return nil, fmt.Errorf("data: segment %s: footer checksum mismatch (file %08x, computed %08x)", path, fcrc, got)
	}
	s := &Segment{f: f, path: path}
	if err := s.parseFooter(footer, size-segTrailerLen-flen); err != nil {
		return nil, fmt.Errorf("data: segment %s: %v", path, err)
	}
	return s, nil
}

// footerReader walks the footer blob with bounds checks.
type footerReader struct {
	buf []byte
	off int
	err error
}

func (r *footerReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *footerReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *footerReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *footerReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *footerReader) str() string { return string(r.take(int(r.u16()))) }

// left returns the footer bytes not yet consumed.
func (r *footerReader) left() int { return len(r.buf) - r.off }

// Minimum footer bytes per declared entry. Counts are checked against them
// before anything is allocated, so a forged count cannot outsize the footer
// that declares it.
const (
	footerColBytes      = 2                 // name length, empty name
	footerGroupBytes    = 4                 // row count
	footerGroupColBytes = 8 + 4 + 1 + 8 + 8 // off, plen, enc, min, max
)

func (s *Segment) parseFooter(footer []byte, dataEnd int64) error {
	r := &footerReader{buf: footer}
	s.name = r.str()
	ncols := int(r.u32())
	if r.err == nil && (ncols <= 0 || ncols > 1<<20 || ncols > r.left()/footerColBytes) {
		return fmt.Errorf("footer declares %d columns", ncols)
	}
	if r.err != nil {
		return fmt.Errorf("footer truncated")
	}
	s.cols = make([]string, ncols)
	s.byName = make(map[string]int, ncols)
	for i := range s.cols {
		s.cols[i] = r.str()
		s.byName[s.cols[i]] = i
	}
	s.nrows = int64(r.u64())
	s.blockRows = int(r.u32())
	ngroups := int(r.u32())
	if r.err == nil && (s.blockRows <= 0 || ngroups < 0 ||
		ngroups > r.left()/(footerGroupBytes+footerGroupColBytes*ncols)) {
		return fmt.Errorf("footer declares blockRows %d, %d groups", s.blockRows, ngroups)
	}
	var rows int64
	s.groups = make([]segGroup, 0, ngroups)
	for gi := 0; gi < ngroups && r.err == nil; gi++ {
		g := segGroup{count: int(r.u32()), start: rows, blocks: make([]blockMeta, ncols)}
		if r.err == nil && (g.count <= 0 || g.count > s.blockRows) {
			return fmt.Errorf("group %d declares %d rows (blockRows %d)", gi, g.count, s.blockRows)
		}
		for c := range g.blocks {
			b := blockMeta{off: int64(r.u64()), plen: r.u32()}
			if eb := r.take(1); eb != nil {
				b.enc = eb[0]
			}
			b.min = int64(r.u64())
			b.max = int64(r.u64())
			if r.err == nil && (b.off < 4 || b.off > dataEnd-4-int64(b.plen)) {
				return fmt.Errorf("group %d column %d block [%d,+%d) outside data area", gi, c, b.off, b.plen)
			}
			if int(b.plen) > s.maxPlen {
				s.maxPlen = int(b.plen)
			}
			g.blocks[c] = b
		}
		rows += int64(g.count)
		s.groups = append(s.groups, g)
	}
	if r.err != nil {
		return fmt.Errorf("footer truncated")
	}
	if rows != s.nrows {
		return fmt.Errorf("footer groups sum to %d rows, header says %d", rows, s.nrows)
	}
	return nil
}

// Close closes the segment's file handle.
func (s *Segment) Close() error {
	if s.f == nil {
		return nil
	}
	f := s.f
	s.f = nil
	if err := f.Close(); err != nil {
		return fmt.Errorf("data: close segment %s: %v", s.path, err)
	}
	return nil
}

// Name returns the table name stored in the segment.
func (s *Segment) Name() string { return s.name }

// NumRows returns the segment's row count.
func (s *Segment) NumRows() int64 { return s.nrows }

// BlockRows returns the segment's row-group height.
func (s *Segment) BlockRows() int { return s.blockRows }

// NumGroups returns the number of row groups.
func (s *Segment) NumGroups() int { return len(s.groups) }

// ColumnNames returns the segment's column names in declaration order.
func (s *Segment) ColumnNames() []string { return append([]string(nil), s.cols...) }

// DataBytes returns the total encoded block bytes (CRCs included), the
// segment's on-disk scan volume.
func (s *Segment) DataBytes() int64 {
	var n int64
	for _, g := range s.groups {
		for _, b := range g.blocks {
			n += int64(b.plen) + 4
		}
	}
	return n
}

// columnIndex resolves a column name.
func (s *Segment) columnIndex(name string) (int, error) {
	i, ok := s.byName[name]
	if !ok {
		return 0, fmt.Errorf("data: segment %q has no column %q", s.name, name)
	}
	return i, nil
}

// readBlock reads, CRC-verifies and decodes the block of group g, column c
// into dst, reusing dst and scratch capacity. It returns the decoded values
// and the (possibly grown) scratch buffer.
func (s *Segment) readBlock(g, c int, dst []int64, scratch []byte) ([]int64, []byte, error) {
	bm := s.groups[g].blocks[c]
	need := int(bm.plen) + 4
	if cap(scratch) < need {
		scratch = make([]byte, need)
	}
	buf := scratch[:need]
	if _, err := s.f.ReadAt(buf, bm.off); err != nil {
		return nil, scratch, fmt.Errorf("data: segment %s: read block g%d c%d: %v", s.path, g, c, err)
	}
	sum := crc32.ChecksumIEEE(buf[:bm.plen])
	if got := binary.LittleEndian.Uint32(buf[bm.plen:]); got != sum {
		return nil, scratch, fmt.Errorf("data: segment %s: block g%d c%d checksum mismatch (file %08x, computed %08x)", s.path, g, c, got, sum)
	}
	vals, err := colblk.Decode(dst, bm.enc, buf[:bm.plen], s.groups[g].count)
	if err != nil {
		return nil, scratch, fmt.Errorf("data: segment %s: decode block g%d c%d: %w", s.path, g, c, err)
	}
	return vals, scratch, nil
}

// ReadColumn decodes the named column in full. It is the materialization
// path for consumers that need random access (index builds, executor scans);
// streaming consumers should use the table's chunk readers instead.
func (s *Segment) ReadColumn(name string) ([]int64, error) {
	c, err := s.columnIndex(name)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, s.nrows)
	var scratch []byte
	var block []int64
	for g := range s.groups {
		block, scratch, err = s.readBlock(g, c, block, scratch)
		if err != nil {
			return nil, err
		}
		out = append(out, block...)
	}
	return out, nil
}

// ColumnMinMax aggregates the footer's per-block extrema for the named
// column without touching block data. ok is false for an empty segment.
func (s *Segment) ColumnMinMax(name string) (minV, maxV int64, ok bool, err error) {
	c, err := s.columnIndex(name)
	if err != nil {
		return 0, 0, false, err
	}
	if len(s.groups) == 0 {
		return 0, 0, false, nil
	}
	minV, maxV = s.groups[0].blocks[c].min, s.groups[0].blocks[c].max
	for _, g := range s.groups[1:] {
		if b := g.blocks[c]; b.min < minV {
			minV = b.min
		}
		if b := g.blocks[c]; b.max > maxV {
			maxV = b.max
		}
	}
	return minV, maxV, true, nil
}

// groupOverlaps reports whether group g's block of column c can contain a
// value in [lo, hi].
func (s *Segment) groupOverlaps(g, c int, lo, hi int64) bool {
	b := s.groups[g].blocks[c]
	return b.max >= lo && b.min <= hi
}

// OpenSegmentTable opens the segment at path as a read-only, segment-backed
// Table: scans stream blocks off disk, and full columns materialize lazily
// only when a consumer needs random access. The caller owns the table's
// Close.
func OpenSegmentTable(path string) (*Table, error) {
	seg, err := OpenSegment(path)
	if err != nil {
		return nil, err
	}
	t, err := NewTable(seg.Name(), seg.cols...)
	if err != nil {
		_ = seg.Close()
		return nil, err
	}
	t.seg = seg
	t.segLoaded = make([]bool, len(seg.cols))
	return t, nil
}
