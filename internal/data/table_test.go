package data

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewTableErrors(t *testing.T) {
	if _, err := NewTable("", "a"); err == nil {
		t.Error("empty table name: want error")
	}
	if _, err := NewTable("R"); err == nil {
		t.Error("no columns: want error")
	}
	if _, err := NewTable("R", "a", "a"); err == nil {
		t.Error("duplicate column: want error")
	}
	if _, err := NewTable("R", "a", ""); err == nil {
		t.Error("empty column name: want error")
	}
}

func TestAppendAndColumn(t *testing.T) {
	tab := MustNewTable("R", "x", "a")
	if err := tab.AppendRow(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendRow(2, 20); err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendRow(1); err == nil {
		t.Error("short row: want error")
	}
	if got := tab.NumRows(); got != 2 {
		t.Errorf("NumRows = %d, want 2", got)
	}
	x, err := tab.Column("x")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x, []int64{1, 2}) {
		t.Errorf("column x = %v", x)
	}
	if _, err := tab.Column("nope"); err == nil {
		t.Error("missing column: want error")
	}
	row, err := tab.Row(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(row, []int64{2, 20}) {
		t.Errorf("Row(1) = %v", row)
	}
	if _, err := tab.Row(2); err == nil {
		t.Error("row out of range: want error")
	}
}

func TestValidate(t *testing.T) {
	tab := MustNewTable("R", "x", "y")
	if err := tab.AppendRow(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tab.Validate(); err != nil {
		t.Errorf("Validate on consistent table: %v", err)
	}
	if err := tab.SetColumn("y", []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Validate(); err == nil {
		t.Error("Validate with ragged columns: want error")
	}
	if err := tab.SetColumn("zz", nil); err == nil {
		t.Error("SetColumn on missing column: want error")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	r := MustNewTable("R", "x")
	s := MustNewTable("S", "y")
	c.MustAdd(r)
	c.MustAdd(s)
	if err := c.Add(MustNewTable("R", "z")); err == nil {
		t.Error("duplicate add: want error")
	}
	if err := c.Add(nil); err == nil {
		t.Error("nil add: want error")
	}
	got, err := c.Table("R")
	if err != nil || got != r {
		t.Errorf("Table(R) = %v, %v", got, err)
	}
	if _, err := c.Table("T"); err == nil {
		t.Error("missing table lookup: want error")
	}
	if !c.Has("S") || c.Has("T") {
		t.Error("Has misreported membership")
	}
	if names := c.Names(); !reflect.DeepEqual(names, []string{"R", "S"}) {
		t.Errorf("Names = %v", names)
	}
	if !c.MustTable("R").HasColumn("x") {
		t.Error("MustTable(R) lost its column")
	}
}

// readChunks drains a chunk reader, copying each chunk out of the reader's
// reused buffers.
func readChunks(t testing.TB, rd ChunkReader) []Chunk {
	t.Helper()
	var out []Chunk
	for {
		ch, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		cp := Chunk{Start: ch.Start, Seq: ch.Seq, Cols: make([][]int64, len(ch.Cols))}
		for i, c := range ch.Cols {
			cp.Cols[i] = append([]int64(nil), c...)
		}
		out = append(out, cp)
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOpenChunks(t *testing.T) {
	tab := MustNewTable("C", "x", "a")
	const rows = 10
	for i := int64(0); i < rows; i++ {
		if err := tab.AppendRow(i, i*100); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := tab.OpenChunks(4, "a", "x")
	if err != nil {
		t.Fatal(err)
	}
	chunks := readChunks(t, rd)
	if len(chunks) != 3 || tab.NumChunks(4) != 3 {
		t.Fatalf("chunks = %d (NumChunks %d), want 3", len(chunks), tab.NumChunks(4))
	}
	wantStarts := []int{0, 4, 8}
	wantLens := []int{4, 4, 2}
	row := int64(0)
	for ci, ch := range chunks {
		if ch.Start != wantStarts[ci] || ch.Seq != ci || ch.Len() != wantLens[ci] {
			t.Errorf("chunk %d: start=%d seq=%d len=%d, want start=%d len=%d",
				ci, ch.Start, ch.Seq, ch.Len(), wantStarts[ci], wantLens[ci])
		}
		if len(ch.Cols) != 2 {
			t.Fatalf("chunk %d: %d columns, want 2", ci, len(ch.Cols))
		}
		for r := 0; r < ch.Len(); r++ {
			if ch.Cols[0][r] != row*100 || ch.Cols[1][r] != row {
				t.Errorf("chunk %d row %d = (%d,%d), want (%d,%d)",
					ci, r, ch.Cols[0][r], ch.Cols[1][r], row*100, row)
			}
			row++
		}
	}
	if row != rows {
		t.Errorf("chunks covered %d rows, want %d", row, rows)
	}

	// A chunk size at least the table size yields a single chunk.
	rd, err = tab.OpenChunks(rows, "x")
	if err != nil {
		t.Fatal(err)
	}
	if one := readChunks(t, rd); len(one) != 1 || one[0].Len() != rows {
		t.Errorf("single chunk: got %d chunks", len(one))
	}

	if _, err := tab.OpenChunks(0, "x"); err == nil {
		t.Error("chunk size 0: want error")
	}
	if _, err := tab.OpenChunks(4); err == nil {
		t.Error("no columns: want error")
	}
	if _, err := tab.OpenChunks(4, "missing"); err == nil {
		t.Error("missing column: want error")
	}
	empty := MustNewTable("E", "x")
	rd, err = empty.OpenChunks(4, "x")
	if err != nil {
		t.Fatal(err)
	}
	if chunks := readChunks(t, rd); len(chunks) != 0 {
		t.Errorf("empty table: %d chunks, want 0", len(chunks))
	}
}

// Property: chunk boundaries depend only on the table size and chunk size,
// chunks are contiguous, and concatenating them reproduces every column.
func TestOpenChunksCoverQuick(t *testing.T) {
	f := func(vals []int64, sizeSeed uint8) bool {
		tab := MustNewTable("Q", "v")
		for _, v := range vals {
			if err := tab.AppendRow(v); err != nil {
				return false
			}
		}
		size := int(sizeSeed%7) + 1
		rd, err := tab.OpenChunks(size, "v")
		if err != nil {
			return false
		}
		var got []int64
		next := 0
		for _, ch := range readChunks(t, rd) {
			if ch.Start != next || ch.Len() == 0 || ch.Len() > size {
				return false
			}
			got = append(got, ch.Cols[0]...)
			next += ch.Len()
		}
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGenerationCounter pins the staleness contract: every mutating
// operation bumps the table generation, and read-only accessors leave it
// untouched, so a cache that captured Generation() can detect any
// intervening mutation.
func TestGenerationCounter(t *testing.T) {
	tab := MustNewTable("G", "a", "b")
	if g := tab.Generation(); g != 0 {
		t.Fatalf("fresh table generation = %d, want 0", g)
	}
	last := tab.Generation()
	step := func(name string, f func() error) {
		t.Helper()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g := tab.Generation(); g <= last {
			t.Fatalf("%s did not bump generation (still %d)", name, g)
		}
		last = tab.Generation()
	}
	step("AppendRow", func() error { return tab.AppendRow(1, 2) })
	step("Grow", func() error { tab.Grow(64); return nil })
	step("AppendColumns", func() error { return tab.AppendColumns([]int64{3}, []int64{4}) })
	step("SetColumn", func() error { return tab.SetColumn("a", []int64{1, 3, 5}) })

	// Read-only paths must not bump.
	before := tab.Generation()
	_ = tab.NumRows()
	_, _ = tab.Column("a")
	_, _ = tab.Row(0)
	if g := tab.Generation(); g != before {
		t.Fatalf("read-only access bumped generation: %d -> %d", before, g)
	}

	// Failed mutations must not bump either: a rejected append changed
	// nothing, so caches built before it are still valid.
	if err := tab.AppendRow(1); err == nil {
		t.Fatal("AppendRow with wrong arity unexpectedly succeeded")
	}
	if g := tab.Generation(); g != before {
		t.Fatalf("failed mutation bumped generation: %d -> %d", before, g)
	}
}
