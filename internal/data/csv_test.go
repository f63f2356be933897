package data

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// This file keeps the original CSV reader and writer — encoding/csv on every
// record, strconv.ParseInt and FormatInt on every field — as the references
// the byte-level record parser and the row formatter are checked against.

// oracleReadCSV is the original ReadCSV: encoding/csv records, appended to
// the table in batches.
func oracleReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("data: reading CSV header for %q: %w", name, err)
	}
	cols := make([]string, len(header))
	copy(cols, header)
	t, err := NewTable(name, cols...)
	if err != nil {
		return nil, err
	}
	const batchRows = 4096
	buf := make([][]int64, len(cols))
	for i := range buf {
		buf[i] = make([]int64, 0, batchRows)
	}
	flush := func() error {
		if len(buf[0]) == 0 {
			return nil
		}
		t.Grow(len(buf[0]))
		if err := t.AppendColumns(buf...); err != nil {
			return err
		}
		for i := range buf {
			buf[i] = buf[i][:0]
		}
		return nil
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("data: reading CSV for %q line %d: %w", name, line, err)
		}
		if len(rec) != len(cols) {
			return nil, fmt.Errorf("data: CSV for %q line %d: got %d fields, want %d", name, line, len(rec), len(cols))
		}
		for i, field := range rec {
			v, err := strconv.ParseInt(field, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("data: CSV for %q line %d column %q: %w", name, line, cols[i], err)
			}
			buf[i] = append(buf[i], v)
		}
		if len(buf[0]) == batchRows {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return t, nil
}

// oracleWriteCSV is the original WriteCSV: every row through csv.Writer.
func oracleWriteCSV(t *Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return err
	}
	n := t.NumRows()
	cols := make([][]int64, t.NumCols())
	for i, name := range t.ColumnNames() {
		c, err := t.Column(name)
		if err != nil {
			return err
		}
		cols[i] = c
	}
	rec := make([]string, len(cols))
	for r := 0; r < n; r++ {
		for i := range cols {
			rec[i] = strconv.FormatInt(cols[i][r], 10)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// sameTable reports how got differs from want in column names or values, or
// "" when they agree. A nil column equals an empty one.
func sameTable(got, want *Table) string {
	if !slices.Equal(got.ColumnNames(), want.ColumnNames()) {
		return fmt.Sprintf("columns %q, want %q", got.ColumnNames(), want.ColumnNames())
	}
	for _, c := range want.ColumnNames() {
		if g, w := got.MustColumn(c), want.MustColumn(c); !slices.Equal(g, w) {
			return fmt.Sprintf("column %q = %v, want %v", c, g, w)
		}
	}
	return ""
}

func TestCSVRoundTrip(t *testing.T) {
	tab := MustNewTable("R", "x", "a")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if err := tab.AppendRow(rng.Int63n(1000)-500, rng.Int63()); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteCSV(tab, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("R", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if d := sameTable(back, tab); d != "" {
		t.Error(d)
	}
}

// TestCSVErrors pins the messages of bad inputs, with the physical line of
// the offending record: blank lines count, and a record of the wrong width is
// reported by its field count.
func TestCSVErrors(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"", `data: reading CSV header for "R": EOF`},
		{"x,y\n1\n", `data: CSV for "R" line 2: got 1 fields, want 2`},
		{"x,y\n1,2\n3\n", `data: CSV for "R" line 3: got 1 fields, want 2`},
		{"x,y\n1,2,3\n", `data: CSV for "R" line 2: got 3 fields, want 2`},
		{"x\nnotanint\n", `data: CSV for "R" line 2 column "x": strconv.ParseInt: parsing "notanint": invalid syntax`},
		{"x\n1\n\nbad\n", `data: CSV for "R" line 4 column "x": strconv.ParseInt: parsing "bad": invalid syntax`},
		{"x\r\n1\r\n\r\nbad\r\n", `data: CSV for "R" line 4 column "x": strconv.ParseInt: parsing "bad": invalid syntax`},
		{"x,y\n1,2\n3,9223372036854775808\n", `data: CSV for "R" line 3 column "y": strconv.ParseInt: parsing "9223372036854775808": value out of range`},
		{"x\n\"1\n", `data: reading CSV for "R" line 2: extraneous or missing " in quoted-field`},
	} {
		_, err := ReadCSV("R", strings.NewReader(c.in))
		if err == nil || err.Error() != c.want {
			t.Errorf("ReadCSV(%q) error = %v, want %s", c.in, err, c.want)
		}
	}
	_, err := ReadCSV("R", strings.NewReader("x\n-9223372036854775809\n"))
	if !errors.Is(err, strconv.ErrRange) {
		t.Errorf("overflow error = %v, want strconv.ErrRange", err)
	}
}

// FuzzReadCSV checks ReadCSV against the encoding/csv reader: the same
// columns and values, or an error from both.
func FuzzReadCSV(f *testing.F) {
	for _, s := range []string{
		"x,y\n1,2\n",
		"x,y\n\"1\",2\n",
		"x,y\r\n1,2\r\n3,4\r\n",
		"x,y\n1,2\r",
		"x\n\n1\n\n\n2\n\r\n",
		"x,y\n",
		"x,y",
		"x\n+5\n",
		"x\n-0\n",
		"x,y\n1,\n",
		"x\n1234567890123456789\n",
		"x\n-9223372036854775808\n",
		"x\n9223372036854775808\n",
		"x\n\"1,2\"\n",
		"x\n\"1\"\"2\"\n",
		"x,y\n\"1\"x2\n",
		"x\n\"1\n2\"\n",
		"x\n1\r2\n",
		"\"a b\",\"c\"\"d\"\n-1,00042\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gotErr := ReadCSV("R", strings.NewReader(s))
		want, wantErr := oracleReadCSV("R", strings.NewReader(s))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("ReadCSV(%q) error %v, reference error %v", s, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if d := sameTable(got, want); d != "" {
			t.Fatalf("ReadCSV(%q): %s", s, d)
		}
	})
}

// streamInput is a CSV input that exercises the line handling at every
// block edge: CRLF and LF lines, blank lines of both kinds, quoted fields,
// long and signed values, and a last line ended by a '\r' at EOF.
func streamInput(rows int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("alpha,\"beta\",gamma\n")
	for r := 0; r < rows; r++ {
		switch rng.Intn(6) {
		case 0:
			b.WriteString("\n")
		case 1:
			b.WriteString("\r\n")
		}
		vals := []int64{rng.Int63n(2000) - 1000, rng.Int63() - rng.Int63(), int64(r)}
		if rng.Intn(8) == 0 {
			vals[1] = math.MinInt64
		}
		for i, v := range vals {
			if i > 0 {
				b.WriteByte(',')
			}
			if rng.Intn(10) == 0 {
				fmt.Fprintf(&b, "\"%d\"", v)
			} else {
				b.WriteString(strconv.FormatInt(v, 10))
			}
		}
		if rng.Intn(2) == 0 {
			b.WriteString("\r\n")
		} else {
			b.WriteString("\n")
		}
	}
	b.WriteString("7,8,9\r")
	return b.String()
}

// streamToTable converts in through streamCSV with the given block size and
// reads the segment back as a table.
func streamToTable(t *testing.T, in string, r io.Reader, block int) (*Table, error) {
	t.Helper()
	header, err := csv.NewReader(strings.NewReader(in)).Read()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "S.seg")
	w, err := CreateSegment(path, "S", header)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := streamCSV("S", r, w, block)
	if err != nil {
		w.abort()
		return nil, err
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	tab, err := OpenSegmentTable(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tab.Close() })
	if tab.NumRows() != rows {
		t.Fatalf("streamed %d rows, segment holds %d", rows, tab.NumRows())
	}
	return tab, nil
}

// TestStreamCSVMatchesReadCSV streams inputs several blocks long through the
// segment converter and wants ReadCSV's table back. Every block size from 8
// to 70 bytes puts each line break, blank line and CRLF of the small input on
// some block edge, and lines and the header longer than the block make it
// grow. The large input runs at the converter's own block size.
func TestStreamCSVMatchesReadCSV(t *testing.T) {
	small := streamInput(40, 1)
	for block := 8; block <= 70; block++ {
		want, err := ReadCSV("S", strings.NewReader(small))
		if err != nil {
			t.Fatal(err)
		}
		var r io.Reader = strings.NewReader(small)
		if block%2 == 1 {
			r = iotest.HalfReader(r)
		}
		got, err := streamToTable(t, small, r, block)
		if err != nil {
			t.Fatalf("block %d: %v", block, err)
		}
		if d := sameTable(got, want); d != "" {
			t.Fatalf("block %d: %s", block, d)
		}
	}
	large := streamInput(60000, 2)
	if len(large) < 3*csvBlock {
		t.Fatalf("large input is %d bytes, want several %d-byte blocks", len(large), csvBlock)
	}
	want, err := ReadCSV("S", strings.NewReader(large))
	if err != nil {
		t.Fatal(err)
	}
	got, err := streamToTable(t, large, strings.NewReader(large), csvBlock)
	if err != nil {
		t.Fatal(err)
	}
	if d := sameTable(got, want); d != "" {
		t.Fatal(d)
	}
	// A bad record deep in the stream is reported on the same line.
	bad := small[:len(small)-1] + "\n\n1,x,2\n"
	_, wantErr := ReadCSV("S", strings.NewReader(bad))
	for _, block := range []int{8, 13, 64, csvBlock} {
		_, err := streamToTable(t, bad, strings.NewReader(bad), block)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("block %d: error %v, want %v", block, err, wantErr)
		}
	}
}

// TestWriteCSVMatchesOracle wants WriteCSV byte-identical to the csv.Writer
// reference, extreme values and a header that needs quoting included.
func TestWriteCSVMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := MustNewTable("W", "x", "a b", "c,d", "e\"f")
	for _, v := range []int64{0, -1, 1, math.MinInt64, math.MaxInt64, -42} {
		if err := tab.AppendRow(v, -v, v/7, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20000; i++ {
		if err := tab.AppendRow(rng.Int63n(120000)-5000, rng.Int63()-rng.Int63(), rng.Int63n(10), -rng.Int63n(1e6)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tb := range []*Table{tab, MustNewTable("E", "only")} {
		var got, want bytes.Buffer
		if err := WriteCSV(tb, &got); err != nil {
			t.Fatal(err)
		}
		if err := oracleWriteCSV(tb, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("table %s: WriteCSV output (%d bytes) differs from the reference (%d bytes)", tb.Name(), got.Len(), want.Len())
		}
	}
}

// csvBenchTable is an 80 000-row, 5-column table shaped like the benchmark
// workloads' CSV tables: join keys, a signed attribute, and small domains.
func csvBenchTable(b *testing.B) *Table {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	t := MustNewTable("B", "jprev", "jnext", "a", "b", "c")
	for i := 0; i < 80000; i++ {
		if err := t.AppendRow(rng.Int63n(60000), rng.Int63n(60000), rng.Int63n(60000)-5000, rng.Int63n(100), rng.Int63n(1000)); err != nil {
			b.Fatal(err)
		}
	}
	return t
}

// BenchmarkReadCSV reads one table's CSV from memory with ReadCSV and with
// the encoding/csv reference, in the same binary.
func BenchmarkReadCSV(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteCSV(csvBenchTable(b), &buf); err != nil {
		b.Fatal(err)
	}
	in := buf.Bytes()
	for _, c := range []struct {
		name string
		read func(string, io.Reader) (*Table, error)
	}{{"scan", ReadCSV}, {"encoding-csv-ref", oracleReadCSV}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(in)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.read("B", bytes.NewReader(in)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteCSV writes one table's CSV to memory with WriteCSV and with
// the csv.Writer reference, in the same binary.
func BenchmarkWriteCSV(b *testing.B) {
	tab := csvBenchTable(b)
	for _, c := range []struct {
		name  string
		write func(*Table, io.Writer) error
	}{{"append", WriteCSV}, {"csv-writer-ref", oracleWriteCSV}} {
		b.Run(c.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := c.write(tab, &buf); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
}
