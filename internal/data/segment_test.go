package data

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/sitstats/sits/internal/mem"
)

// buildTestTable makes a three-column table mixing codec-friendly and
// incompressible data: a sorted id, a low-cardinality dim, and noise.
func buildTestTable(t *testing.T, rows int) *Table {
	t.Helper()
	tab := MustNewTable("seg", "id", "dim", "noise")
	rng := rand.New(rand.NewSource(11)) //statcheck:ignore rawrand seeded test data
	cols := [][]int64{make([]int64, rows), make([]int64, rows), make([]int64, rows)}
	for i := 0; i < rows; i++ {
		cols[0][i] = int64(i) * 2
		cols[1][i] = int64(i/1000) % 7
		cols[2][i] = int64(rng.Uint64())
	}
	if err := tab.AppendColumns(cols...); err != nil {
		t.Fatal(err)
	}
	return tab
}

func writeTestSegment(t *testing.T, tab *Table) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), tab.Name()+".seg")
	if err := WriteSegment(path, tab); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSegmentRoundTrip(t *testing.T) {
	// 2.5 row groups: two full blocks and a partial tail.
	tab := buildTestTable(t, 2*DefaultBlockRows+DefaultBlockRows/2)
	path := writeTestSegment(t, tab)

	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := seg.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if seg.Name() != "seg" {
		t.Fatalf("segment name = %q", seg.Name())
	}
	if got, want := seg.NumRows(), int64(tab.NumRows()); got != want {
		t.Fatalf("NumRows = %d, want %d", got, want)
	}
	if seg.NumGroups() != 3 {
		t.Fatalf("NumGroups = %d, want 3", seg.NumGroups())
	}
	if !reflect.DeepEqual(seg.ColumnNames(), tab.ColumnNames()) {
		t.Fatalf("columns = %v, want %v", seg.ColumnNames(), tab.ColumnNames())
	}
	for _, name := range tab.ColumnNames() {
		got, err := seg.ReadColumn(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tab.MustColumn(name)) {
			t.Fatalf("column %q decodes differently", name)
		}
	}
	// The sorted id and low-cardinality dim must compress below raw size.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	raw := int64(tab.NumRows()) * 3 * 8
	if fi.Size() >= raw {
		t.Fatalf("segment %d bytes not smaller than raw %d", fi.Size(), raw)
	}
}

func TestSegmentTableSemantics(t *testing.T) {
	tab := buildTestTable(t, DefaultBlockRows+17)
	path := writeTestSegment(t, tab)
	st, err := OpenSegmentTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if st.Name() != "seg" || st.NumRows() != tab.NumRows() || st.NumCols() != 3 {
		t.Fatalf("segment table shape: name %q rows %d cols %d", st.Name(), st.NumRows(), st.NumCols())
	}
	if st.seg == nil {
		t.Fatal("Segment() nil on segment-backed table")
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	// Footer-only extrema, before any column materializes.
	minV, maxV, ok, err := st.seg.ColumnMinMax("id")
	if err != nil || !ok {
		t.Fatalf("MinMax: %v %v", ok, err)
	}
	if wantMin, wantMax := int64(0), int64(2*(tab.NumRows()-1)); minV != wantMin || maxV != wantMax {
		t.Fatalf("MinMax = (%d, %d), want (%d, %d)", minV, maxV, wantMin, wantMax)
	}
	// Mutations are rejected.
	if err := st.AppendRow(1, 2, 3); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("AppendRow on segment table: %v", err)
	}
	if err := st.AppendColumns([]int64{1}, []int64{2}, []int64{3}); err == nil {
		t.Fatal("AppendColumns on segment table succeeded")
	}
	if err := st.SetColumn("id", nil); err == nil {
		t.Fatal("SetColumn on segment table succeeded")
	}
	st.Grow(10) // must be a no-op, not a panic
	// Lazy materialization serves full-column consumers identically.
	got, err := st.Column("noise")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tab.MustColumn("noise")) {
		t.Fatal("materialized column differs from source")
	}
	// OpenChunks keeps working once a column has materialized.
	segRd, err := st.OpenChunks(1024, "id", "dim")
	if err != nil {
		t.Fatal(err)
	}
	memRd, err := tab.OpenChunks(1024, "id", "dim")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(readChunks(t, segRd), readChunks(t, memRd)) {
		t.Fatal("OpenChunks differs between segment-backed and in-memory table")
	}
}

// TestSegmentChunkIdentity streams segment chunks at aligned, finer, and
// coarser grids and checks Start/Seq/values are identical to the in-memory
// chunking of the same data.
func TestSegmentChunkIdentity(t *testing.T) {
	tab := buildTestTable(t, 2*DefaultBlockRows+931)
	path := writeTestSegment(t, tab)
	cols := []string{"id", "noise", "dim"}
	for _, chunkSize := range []int{DefaultBlockRows, 1000, 10000, 1, 7 * DefaultBlockRows} {
		st, err := OpenSegmentTable(path)
		if err != nil {
			t.Fatal(err)
		}
		memRd, err := tab.OpenChunks(chunkSize, cols...)
		if err != nil {
			t.Fatal(err)
		}
		want := readChunks(t, memRd)
		if n := st.NumChunks(chunkSize); n != len(want) {
			t.Fatalf("chunkSize %d: NumChunks = %d, want %d", chunkSize, n, len(want))
		}
		rd, err := st.OpenChunks(chunkSize, cols...)
		if err != nil {
			t.Fatal(err)
		}
		got := readChunks(t, rd)
		if len(got) != len(want) {
			t.Fatalf("chunkSize %d: %d chunks, want %d", chunkSize, len(got), len(want))
		}
		for i := range want {
			if got[i].Start != want[i].Start || got[i].Seq != want[i].Seq {
				t.Fatalf("chunkSize %d chunk %d: Start/Seq (%d,%d), want (%d,%d)",
					chunkSize, i, got[i].Start, got[i].Seq, want[i].Start, want[i].Seq)
			}
			if !reflect.DeepEqual(got[i].Cols, want[i].Cols) {
				t.Fatalf("chunkSize %d chunk %d: values differ", chunkSize, i)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegmentChunkWindows splits the grid into reader windows and checks the
// concatenation equals the full stream — the sharding pattern parallel scans
// use.
func TestSegmentChunkWindows(t *testing.T) {
	tab := buildTestTable(t, 3*DefaultBlockRows+55)
	path := writeTestSegment(t, tab)
	st, err := OpenSegmentTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	const chunkSize = 1500
	n := st.NumChunks(chunkSize)
	var seqs []int
	for _, w := range [][2]int{{0, n / 3}, {n / 3, 2 * n / 3}, {2 * n / 3, 0}} {
		rd, err := st.OpenChunksSpec(chunkSize, ScanSpec{Lo: w[0], Hi: w[1]}, "id")
		if err != nil {
			t.Fatal(err)
		}
		for {
			ch, ok, err := rd.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			seqs = append(seqs, ch.Seq)
		}
		if err := rd.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(seqs) != n {
		t.Fatalf("windows yielded %d chunks, want %d", len(seqs), n)
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("windowed Seq sequence broken at %d: %d", i, s)
		}
	}
}

// TestSegmentBlockSkipping scans with a range filter over the sorted id
// column and checks blocks outside the range are skipped without losing any
// matching row.
func TestSegmentBlockSkipping(t *testing.T) {
	rows := 4 * DefaultBlockRows
	tab := buildTestTable(t, rows)
	path := writeTestSegment(t, tab)
	st, err := OpenSegmentTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	// id = 2*row, so [2*blockRows, 3*2*blockRows) covers groups 1 and 2 only.
	lo, hi := int64(2*DefaultBlockRows), int64(6*DefaultBlockRows-1)
	rd, err := st.OpenChunksSpec(DefaultBlockRows,
		ScanSpec{Filter: &RangeFilter{Column: "id", Lo: lo, Hi: hi}}, "id")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := rd.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	var got []int64
	var emitted []int
	for {
		ch, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		emitted = append(emitted, ch.Seq)
		for _, v := range ch.Cols[0] {
			if v >= lo && v <= hi {
				got = append(got, v)
			}
		}
	}
	if !reflect.DeepEqual(emitted, []int{1, 2}) {
		t.Fatalf("emitted chunk seqs = %v, want [1 2] (blocks 0 and 3 skipped)", emitted)
	}
	var want []int64
	for _, v := range tab.MustColumn("id") {
		if v >= lo && v <= hi {
			want = append(want, v)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("filtered scan returned %d rows, want %d", len(got), len(want))
	}
}

// TestSegmentReaderAccounting checks the streaming reader's scratch is
// Forced against the grant while open and released on Close.
func TestSegmentReaderAccounting(t *testing.T) {
	tab := buildTestTable(t, 2*DefaultBlockRows)
	path := writeTestSegment(t, tab)
	st, err := OpenSegmentTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	gov := mem.NewGovernor(1) // pathological budget: Force still admits
	grant := gov.Grant("scan")
	rd, err := st.OpenChunksSpec(DefaultBlockRows, ScanSpec{Grant: grant}, "id", "noise")
	if err != nil {
		t.Fatal(err)
	}
	if grant.Used() < int64(2*DefaultBlockRows*8) {
		t.Fatalf("grant holds %d bytes, want at least two decode buffers", grant.Used())
	}
	held := grant.Used()
	for {
		_, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if grant.Used() != held {
		t.Fatalf("grant usage drifted during scan: %d -> %d", held, grant.Used())
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	if grant.Used() != 0 {
		t.Fatalf("grant still holds %d bytes after Close", grant.Used())
	}
	if err := gov.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentCorruption bit-flips and truncates segment files: block damage
// must surface checksum errors on scan, footer damage must fail Open.
func TestSegmentCorruption(t *testing.T) {
	tab := buildTestTable(t, 2*DefaultBlockRows)
	path := writeTestSegment(t, tab)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	scanAll := func() error {
		st, err := OpenSegmentTable(path)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := st.Close(); cerr != nil {
				t.Errorf("close: %v", cerr)
			}
		}()
		rd, err := st.OpenChunks(DefaultBlockRows, "id", "dim", "noise")
		if err != nil {
			return err
		}
		defer func() {
			if cerr := rd.Close(); cerr != nil {
				t.Errorf("close: %v", cerr)
			}
		}()
		for {
			_, ok, err := rd.Next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
	}
	if err := scanAll(); err != nil {
		t.Fatalf("pristine scan: %v", err)
	}

	t.Run("block-bitflip", func(t *testing.T) {
		defer restore()
		corrupt := append([]byte(nil), pristine...)
		corrupt[len(corrupt)/3] ^= 0x10 // somewhere inside the block data area
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := scanAll(); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("bit-flipped block scan = %v, want checksum mismatch", err)
		}
	})
	t.Run("mid-block-truncation", func(t *testing.T) {
		defer restore()
		// Keep the intact footer (so Open succeeds) but punch the file short
		// underneath it by rewriting with a hole: simulate a torn write by
		// zeroing a block's tail instead, which the CRC must catch.
		corrupt := append([]byte(nil), pristine...)
		for i := 100; i < 200 && i < len(corrupt); i++ {
			corrupt[i] = 0
		}
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := scanAll(); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("zeroed block region scan = %v, want checksum mismatch", err)
		}
	})
	t.Run("truncated-file", func(t *testing.T) {
		defer restore()
		if err := os.WriteFile(path, pristine[:len(pristine)-200], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSegmentTable(path); err == nil {
			t.Fatal("truncated segment opened cleanly")
		}
	})
	t.Run("footer-bitflip", func(t *testing.T) {
		defer restore()
		corrupt := append([]byte(nil), pristine...)
		corrupt[len(corrupt)-20] ^= 0x01 // inside the footer blob
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSegmentTable(path); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("footer bit-flip open = %v, want footer checksum mismatch", err)
		}
	})
}

// forgedFooter is a SEG1 footer under construction: its methods append
// fields in the on-disk order.
type forgedFooter []byte

func (f forgedFooter) str(v string) forgedFooter {
	return append(binary.LittleEndian.AppendUint16(f, uint16(len(v))), v...)
}
func (f forgedFooter) u8(v uint8) forgedFooter   { return append(f, v) }
func (f forgedFooter) u32(v uint32) forgedFooter { return binary.LittleEndian.AppendUint32(f, v) }
func (f forgedFooter) u64(v uint64) forgedFooter { return binary.LittleEndian.AppendUint64(f, v) }

// writeForgedSegment wraps a footer in a magic header and a trailer whose
// length and checksum are valid, so OpenSegment gets past every check that
// precedes footer parsing.
func writeForgedSegment(t *testing.T, footer []byte) string {
	t.Helper()
	file := append([]byte(segMagic), footer...)
	file = binary.LittleEndian.AppendUint32(file, uint32(len(footer)))
	file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(footer))
	file = append(file, segMagic...)
	path := filepath.Join(t.TempDir(), "forged.seg")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSegmentForgedFooterCounts: a CRC-valid footer whose declared counts
// or offsets exceed what the file holds must fail to open with an error —
// never size an allocation from the forged count or overflow the block
// bounds check.
func TestSegmentForgedFooterCounts(t *testing.T) {
	// A fresh prefix per case: the cases must not share a backing array.
	oneCol := func() forgedFooter { return forgedFooter(nil).str("T").u32(1).str("a") }
	for _, tc := range []struct {
		name   string
		footer forgedFooter
		want   string
	}{
		// 42 bytes on disk declaring 2^31-1 row groups.
		{"ngroups", oneCol().u64(0).u32(DefaultBlockRows).u32(math.MaxInt32), "groups"},
		// Two groups declared, one encoded.
		{"ngroups-one-short", oneCol().u64(2).u32(DefaultBlockRows).u32(2).
			u32(1).u64(4).u32(0).u8(0).u64(0).u64(0), "groups"},
		{"ncols", forgedFooter(nil).str("T").u32(1 << 20).str("a"), "columns"},
		{"ncols-max-u32", forgedFooter(nil).str("T").u32(math.MaxUint32).str("a"), "columns"},
		// A block offset whose end would overflow int64 past the data area.
		{"block-offset-overflow", oneCol().u64(1).u32(DefaultBlockRows).u32(1).
			u32(1).u64(math.MaxInt64 - 2).u32(16).u8(0).u64(0).u64(0), "outside data area"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeForgedSegment(t, tc.footer)
			seg, err := OpenSegment(path)
			if err == nil {
				_ = seg.Close()
				t.Fatal("forged footer opened cleanly")
			}
			// The path embeds the test name; match the message alone.
			if !strings.Contains(strings.ReplaceAll(err.Error(), path, ""), tc.want) {
				t.Fatalf("open = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

func TestSegmentEmptyTable(t *testing.T) {
	tab := MustNewTable("empty", "a", "b")
	path := writeTestSegment(t, tab)
	st, err := OpenSegmentTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if st.NumRows() != 0 || st.NumChunks(4096) != 0 {
		t.Fatalf("empty segment: rows %d chunks %d", st.NumRows(), st.NumChunks(4096))
	}
	if _, _, ok, err := st.seg.ColumnMinMax("a"); err != nil || ok {
		t.Fatalf("empty MinMax = %v, %v", ok, err)
	}
	rd, err := st.OpenChunks(4096, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rd.Next(); ok || err != nil {
		t.Fatalf("empty reader Next = %v, %v", ok, err)
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentWriterBlockRows(t *testing.T) {
	// Odd block height exercises general grouping and the writer's buffered
	// (unaligned) path via small appends.
	path := filepath.Join(t.TempDir(), "odd.seg")
	w, err := CreateSegment(path, "odd", []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockRows(100)
	var want []int64
	for i := 0; i < 1234; i += 7 {
		batch := make([]int64, 0, 7)
		for j := 0; j < 7 && i+j < 1234; j++ {
			batch = append(batch, int64((i+j)*13%997))
		}
		want = append(want, batch...)
		if err := w.Append([][]int64{batch}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := seg.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if seg.BlockRows() != 100 || seg.NumGroups() != 13 {
		t.Fatalf("blockRows %d groups %d, want 100 and 13", seg.BlockRows(), seg.NumGroups())
	}
	got, err := seg.ReadColumn("x")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("odd-block segment decodes differently")
	}
}
