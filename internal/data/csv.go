package data

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// The CSV inputs of this package are a header record followed by data
// records of one base-10 int64 per header column. The header goes through
// encoding/csv, so quoted column names behave as they do there. Data records
// go through one byte-level parser, scanner.scan, which accepts what
// encoding/csv followed by strconv.ParseInt accepts: lines end in '\n' or
// "\r\n" (a '\r' just before EOF is dropped), blank lines are skipped, a field
// may be written "…" around its digits, and each field is [-+]?digits in
// int64 range. ReadCSV drives the parser over the whole input at once;
// StreamCSVToSegment drives it over blocks of complete lines.

// csvBlock is the number of bytes StreamCSVToSegment reads per block. A line
// longer than a block grows the block to hold it.
const csvBlock = 256 << 10

// fastDigits is the most digits the fast path accumulates: any 18-digit
// value fits an int64, so longer fields go to strconv.ParseInt.
const fastDigits = 18

var newline = []byte{'\n'}

// ReadCSV loads a table from CSV. The first record must be a header with the
// column names; every subsequent record must contain one base-10 int64 per
// column. The table is named by the name argument. Errors name the physical
// line of the offending record.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("data: reading CSV for %q: %w", name, err)
	}
	return parseCSV(name, buf)
}

// ReadCSVFile loads a table from the CSV file at path; see ReadCSV.
func ReadCSVFile(name, path string) (*Table, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseCSV(name, buf)
}

// parseCSV builds a table from a whole CSV input: each column is sized once
// from the input's line count, filled in one pass and handed to the table.
func parseCSV(name string, buf []byte) (*Table, error) {
	header, off, err := readHeader(name, buf)
	if err != nil {
		return nil, err
	}
	t, err := NewTable(name, header...)
	if err != nil {
		return nil, err
	}
	data := buf[off:]
	s := newScanner(name, header, 1+bytes.Count(buf[:off], newline))
	cols := make([][]int64, len(header))
	n := lineCount(data)
	for i := range cols {
		cols[i] = make([]int64, n)
	}
	rows, err := s.scan(data, cols)
	if err != nil {
		return nil, err
	}
	// A fresh table adopts the columns as they are, without a copy; with no
	// rows they stay nil, as NewTable made them.
	if rows > 0 {
		for i := range cols {
			t.cols[i].Vals = cols[i][:rows]
		}
	}
	return t, nil
}

// StreamCSVToSegment converts CSV (header row, one base-10 int64 per column)
// into an already-created segment writer, block by block: peak memory is one
// block of text and its parsed values plus the writer's pending group,
// independent of the row count, so tables far larger than RAM convert in
// bounded space. The writer must have been created with CreateSegment over
// exactly the CSV's header columns; the caller still owns Finish. Returns the
// number of data rows streamed.
func StreamCSVToSegment(name string, r io.Reader, w *SegmentWriter) (int, error) {
	return streamCSV(name, r, w, csvBlock)
}

// streamCSV is StreamCSVToSegment with block bytes per read.
func streamCSV(name string, r io.Reader, w *SegmentWriter, block int) (int, error) {
	var (
		buf          = make([]byte, block)
		s            *scanner
		cols         [][]int64
		n, off, rows int
		eof          bool
	)
	for !eof {
		// Move the unparsed bytes to the front and read on after them. A
		// header or a line that fills the whole block doubles it.
		m := copy(buf, buf[off:n])
		if m == len(buf) {
			buf = append(buf, make([]byte, len(buf))...)
		}
		got, err := io.ReadFull(r, buf[m:])
		n, off, eof = m+got, 0, err == io.EOF || err == io.ErrUnexpectedEOF
		if err != nil && !eof {
			return rows, fmt.Errorf("data: reading CSV for %q: %w", name, err)
		}
		if s == nil {
			// encoding/csv reads a header cut short as if the input ended
			// there, so a header that reaches the block's end waits for more.
			header, start, err := readHeader(name, buf[:n])
			if !eof && start == n {
				continue
			}
			if err != nil {
				return 0, err
			}
			if err := sameColumns(name, header, w.ColumnNames()); err != nil {
				return 0, err
			}
			s = newScanner(name, header, 1+bytes.Count(buf[:start], newline))
			cols = make([][]int64, len(header))
			off = start
		}
		// Parse the complete lines; a partial last line waits for the next
		// block unless the input has ended.
		end := n
		if !eof {
			end = off + bytes.LastIndexByte(buf[off:n], '\n') + 1
		}
		lines := lineCount(buf[off:end])
		for i := range cols {
			if cap(cols[i]) < lines {
				cols[i] = make([]int64, lines)
			}
			cols[i] = cols[i][:lines]
		}
		k, err := s.scan(buf[off:end], cols)
		if err != nil {
			return rows, err
		}
		off = end
		if k == 0 {
			continue
		}
		for i := range cols {
			cols[i] = cols[i][:k]
		}
		if err := w.Append(cols); err != nil {
			return rows, err
		}
		rows += k
	}
	return rows, nil
}

// sameColumns checks a CSV header against a segment writer's columns.
func sameColumns(name string, header, want []string) error {
	if len(header) != len(want) {
		return fmt.Errorf("data: CSV for %q has %d columns, segment expects %d", name, len(header), len(want))
	}
	for i, h := range header {
		if h != want[i] {
			return fmt.Errorf("data: CSV for %q column %d is %q, segment expects %q", name, i, h, want[i])
		}
	}
	return nil
}

// lineCount is the number of lines in data: one per '\n', plus a last line
// with none. It bounds the records data can hold.
func lineCount(data []byte) int {
	n := bytes.Count(data, newline)
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return n
}

// readHeader reads the header record at the front of buf with encoding/csv
// and returns the column names and the offset where the data starts. That
// offset is len(buf) when the header reaches the end of buf, so a caller
// holding only a prefix of the input must read more and retry.
func readHeader(name string, buf []byte) ([]string, int, error) {
	cr := csv.NewReader(bytes.NewReader(buf))
	header, err := cr.Read()
	off := int(cr.InputOffset())
	if err != nil {
		return nil, off, fmt.Errorf("data: reading CSV header for %q: %w", name, err)
	}
	return header, off, nil
}

// scanner parses the data records of one CSV input.
type scanner struct {
	name   string
	header []string
	// line is the physical line number of the first line of the next scan.
	line int
	// fields is the slow path's scratch for one record's fields.
	fields [][]byte
}

func newScanner(name string, header []string, line int) *scanner {
	return &scanner{name: name, header: header, line: line, fields: make([][]byte, 0, len(header))}
}

// scan parses the records of data, which holds complete lines: each ends in
// '\n' except a last one that ends the input. Field i of the k-th record
// lands in cols[i][k], so each cols[i] needs room for one value per line. It
// returns the number of records and moves s.line past data.
//
// A record whose fields are all plain [-+]?digits of at most fastDigits
// digits is parsed in place; any other line (blank, quoted, long or bad
// fields, a wrong field count) goes to record.
//
//statcheck:hot
func (s *scanner) scan(data []byte, cols [][]int64) (int, error) {
	last := len(cols) - 1
	rows := 0
	for pos := 0; pos < len(data); {
		start := pos
		i := 0
		for ; i <= last; i++ {
			p, neg := pos, false
			if p < len(data) && (data[p] == '-' || data[p] == '+') {
				neg = data[p] == '-'
				p++
			}
			d := p
			var v int64
			for ; p < len(data); p++ {
				c := data[p] - '0'
				if c > 9 {
					break
				}
				v = v*10 + int64(c)
			}
			if p == d || p-d > fastDigits {
				break
			}
			if neg {
				v = -v
			}
			// The field must end at a comma, or the line's end after the
			// last field: '\n', "\r\n", or the input's end with or
			// without a '\r'.
			if p == len(data) {
				if i < last {
					break
				}
				pos = p
			} else if c := data[p]; i < last && c == ',' || i == last && c == '\n' {
				pos = p + 1
			} else if i == last && c == '\r' && (p+1 == len(data) || data[p+1] == '\n') {
				pos = min(p+2, len(data))
			} else {
				break
			}
			cols[i][rows] = v
		}
		if i > last {
			rows++
			continue
		}
		end := len(data)
		if e := bytes.IndexByte(data[start:], '\n'); e >= 0 {
			end = start + e
		}
		ok, err := s.record(data, start, end, cols, rows)
		if err != nil {
			return rows, err
		}
		if ok {
			rows++
		}
		pos = min(end+1, len(data))
	}
	s.line += bytes.Count(data, newline)
	return rows, nil
}

// record parses the line data[start:end], without its '\n', that scan's
// fast path declined. It reports whether the line held a record: blank lines
// hold none.
func (s *scanner) record(data []byte, start, end int, cols [][]int64, row int) (bool, error) {
	line := data[start:end]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	if len(line) == 0 {
		return false, nil
	}
	fields := s.fields[:0]
	for more := true; more; {
		var f []byte
		var err error
		if f, line, more, err = cutField(line); err != nil {
			return false, fmt.Errorf("data: reading CSV for %q line %d: %w", s.name, s.lineAt(data, start), err)
		}
		fields = append(fields, f)
	}
	s.fields = fields
	if len(fields) != len(cols) {
		return false, fmt.Errorf("data: CSV for %q line %d: got %d fields, want %d", s.name, s.lineAt(data, start), len(fields), len(cols))
	}
	for i, f := range fields {
		v, err := strconv.ParseInt(string(f), 10, 64)
		if err != nil {
			return false, fmt.Errorf("data: CSV for %q line %d column %q: %w", s.name, s.lineAt(data, start), s.header[i], err)
		}
		cols[i][row] = v
	}
	return true, nil
}

// cutField splits the first field off a non-blank line and reports whether
// a comma follows it. A field written "…" is unquoted; one whose quotes do
// not close before a comma or the line's end is csv.ErrQuote. Quoted content
// with a quote, comma or newline inside cannot be an integer, so it is
// rejected here or by strconv.ParseInt, as encoding/csv then ParseInt would.
func cutField(line []byte) (field, rest []byte, more bool, err error) {
	if len(line) > 0 && line[0] == '"' {
		q := bytes.IndexByte(line[1:], '"')
		if q < 0 {
			return nil, nil, false, csv.ErrQuote
		}
		field, rest = line[1:1+q], line[2+q:]
		if len(rest) == 0 {
			return field, nil, false, nil
		}
		if rest[0] != ',' {
			return nil, nil, false, csv.ErrQuote
		}
		return field, rest[1:], true, nil
	}
	if c := bytes.IndexByte(line, ','); c >= 0 {
		return line[:c], line[c+1:], true, nil
	}
	return line, nil, false, nil
}

// lineAt is the physical line number of data[start].
func (s *scanner) lineAt(data []byte, start int) int {
	return s.line + bytes.Count(data[:start], newline)
}

// WriteCSV writes the table as CSV with a header row. The header goes
// through encoding/csv, which quotes names that need it; integer fields never
// do, so rows are formatted straight into the buffered output.
func WriteCSV(t *Table, w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	cw := csv.NewWriter(bw)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	cols := make([][]int64, t.NumCols())
	for i, name := range t.ColumnNames() {
		c, err := t.Column(name)
		if err != nil {
			return err
		}
		cols[i] = c
	}
	for r := 0; r < t.NumRows(); r++ {
		b := bw.AvailableBuffer()
		for i, c := range cols {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, c[r], 10)
		}
		b = append(b, '\n')
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteCSVFile writes the table as CSV to the file at path.
func WriteCSVFile(t *Table, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSV(t, f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
