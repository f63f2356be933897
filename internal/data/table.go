// Package data implements the in-memory, column-oriented storage substrate
// used throughout the repository. It stands in for the relational storage
// engine of the RDBMS the paper's prototype ran on: it provides named tables
// with typed (int64) columns, sequential scans over column subsets, and a
// catalog that maps table names to tables.
//
// The Sweep family of SIT-creation algorithms only requires sequential scans
// over pairs (join attribute, target attribute) and per-table cardinalities,
// both of which this package provides. All attribute values are int64, which
// matches the integer-domain synthetic data sets used in the paper's
// evaluation (Section 5.1).
package data

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Column is a single named attribute of a table, stored contiguously.
type Column struct {
	Name string
	Vals []int64
}

// Table is an in-memory relation with column-major storage. Tables are
// append-only: rows are added with AppendRow and never removed, which mirrors
// the read-mostly statistics-creation workload of the paper.
type Table struct {
	name   string
	cols   []Column
	byName map[string]int
	// gen counts mutations (appends, column replacement, and capacity growth,
	// which may reallocate the backing arrays). Caches that retain derived
	// state keyed on a table — sorted runs, join intermediates, served
	// estimates — record the generation they were built against and must
	// assert it still matches before serving, so a mutated table can never
	// satisfy a stale lookup. The counter is atomic so concurrent cache
	// lookups can read it while a writer appends; the column data itself is
	// not synchronized — concurrent mutation and scanning still needs
	// external coordination.
	gen atomic.Uint64

	// seg backs a read-only, segment-backed table (OpenSegmentTable): scans
	// stream blocks off disk and full columns materialize lazily under segMu
	// on first Column access, with segLoaded[i] marking columns already
	// decoded into cols[i].Vals. Segment-backed tables reject mutation.
	seg       *Segment
	segMu     sync.Mutex
	segLoaded []bool
}

// NewTable creates an empty table with the given column names. Column names
// must be unique and non-empty.
func NewTable(name string, columns ...string) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("data: table name must not be empty")
	}
	if len(columns) == 0 {
		return nil, fmt.Errorf("data: table %q must have at least one column", name)
	}
	t := &Table{
		name:   name,
		cols:   make([]Column, len(columns)),
		byName: make(map[string]int, len(columns)),
	}
	for i, c := range columns {
		if c == "" {
			return nil, fmt.Errorf("data: table %q: column name must not be empty", name)
		}
		if _, dup := t.byName[c]; dup {
			return nil, fmt.Errorf("data: table %q: duplicate column %q", name, c)
		}
		t.cols[i] = Column{Name: c}
		t.byName[c] = i
	}
	return t, nil
}

// MustNewTable is NewTable that panics on error; intended for tests and
// statically correct construction sites such as generators.
func MustNewTable(name string, columns ...string) *Table {
	t, err := NewTable(name, columns...)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

// Generation returns the table's mutation counter. It starts at zero and is
// bumped by every operation that changes or may relocate the table's data
// (AppendRow, Grow, AppendColumns, SetColumn). Any cache keyed
// on a table must capture the generation at build time and compare it on
// lookup; a mismatch means the cached state is stale.
func (t *Table) Generation() uint64 { return t.gen.Load() }

// NumRows returns the number of rows in the table.
func (t *Table) NumRows() int {
	if t.seg != nil {
		return int(t.seg.nrows)
	}
	if len(t.cols) == 0 {
		return 0
	}
	return len(t.cols[0].Vals)
}

// Close releases the backing segment's file handle, if any. In-memory
// tables need no Close; calling it is a no-op.
func (t *Table) Close() error {
	if t.seg == nil {
		return nil
	}
	return t.seg.Close()
}

// materialized reports whether every column of a segment-backed table has
// been decoded into memory.
func (t *Table) materialized() bool {
	t.segMu.Lock()
	defer t.segMu.Unlock()
	for _, ok := range t.segLoaded {
		if !ok {
			return false
		}
	}
	return true
}

// NumCols returns the number of columns in the table.
func (t *Table) NumCols() int { return len(t.cols) }

// ColumnNames returns the column names in declaration order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.cols))
	for i := range t.cols {
		names[i] = t.cols[i].Name
	}
	return names
}

// HasColumn reports whether the table has a column with the given name.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.byName[name]
	return ok
}

// Column returns the full value slice of the named column. The returned slice
// is the table's backing storage and must not be modified by callers. On a
// segment-backed table the column is decoded from disk and cached on first
// access; consumers that only scan should prefer OpenChunks, which streams
// blocks without retaining them.
func (t *Table) Column(name string) ([]int64, error) {
	i, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("data: table %q has no column %q", t.name, name)
	}
	if t.seg != nil {
		t.segMu.Lock()
		defer t.segMu.Unlock()
		if !t.segLoaded[i] {
			vals, err := t.seg.ReadColumn(name)
			if err != nil {
				return nil, err
			}
			t.cols[i].Vals = vals
			t.segLoaded[i] = true
		}
	}
	return t.cols[i].Vals, nil
}

// MustColumn is Column that panics on error.
func (t *Table) MustColumn(name string) []int64 {
	v, err := t.Column(name)
	if err != nil {
		panic(err)
	}
	return v
}

// AppendRow appends one row. The number of values must equal the number of
// columns, in declaration order.
func (t *Table) AppendRow(vals ...int64) error {
	if t.seg != nil {
		return fmt.Errorf("data: table %q is segment-backed and read-only", t.name)
	}
	if len(vals) != len(t.cols) {
		return fmt.Errorf("data: table %q: AppendRow got %d values, want %d", t.name, len(vals), len(t.cols))
	}
	for i, v := range vals {
		t.cols[i].Vals = append(t.cols[i].Vals, v)
	}
	t.gen.Add(1)
	return nil
}

// Grow preallocates capacity for at least n additional rows in every column,
// so a sequence of appends totalling n rows performs at most one allocation
// per column. Growth is geometric (at least doubling), so calling Grow before
// every one of a long series of small batch appends stays amortized O(1) per
// row instead of copying the table each time. It never shrinks and is a no-op
// for n <= 0.
func (t *Table) Grow(n int) {
	if n <= 0 || t.seg != nil {
		return
	}
	// Growth may reallocate the backing arrays, so slices handed out before
	// Grow can go stale; that is a mutation as far as caches are concerned.
	t.gen.Add(1)
	for i := range t.cols {
		vals := t.cols[i].Vals
		if cap(vals)-len(vals) >= n {
			continue
		}
		newCap := len(vals) + n
		if c := 2 * cap(vals); c > newCap {
			newCap = c
		}
		grown := make([]int64, len(vals), newCap)
		copy(grown, vals)
		t.cols[i].Vals = grown
	}
}

// AppendColumns appends one value slice per column, in declaration order: all
// slices must have equal length, and vals[i] is appended to column i. This is
// the bulk counterpart of AppendRow — a batch of k rows costs one copy per
// column instead of k per-row appends.
func (t *Table) AppendColumns(vals ...[]int64) error {
	if t.seg != nil {
		return fmt.Errorf("data: table %q is segment-backed and read-only", t.name)
	}
	if len(vals) != len(t.cols) {
		return fmt.Errorf("data: table %q: AppendColumns got %d columns, want %d", t.name, len(vals), len(t.cols))
	}
	n := len(vals[0])
	for i := 1; i < len(vals); i++ {
		if len(vals[i]) != n {
			return fmt.Errorf("data: table %q: AppendColumns column %q has %d rows, want %d",
				t.name, t.cols[i].Name, len(vals[i]), n)
		}
	}
	for i, v := range vals {
		t.cols[i].Vals = append(t.cols[i].Vals, v...)
	}
	t.gen.Add(1)
	return nil
}

// SetColumn replaces the contents of the named column. All columns of a table
// must have equal length once the table is used, which is validated by
// Validate; SetColumn itself only checks the column exists.
func (t *Table) SetColumn(name string, vals []int64) error {
	if t.seg != nil {
		return fmt.Errorf("data: table %q is segment-backed and read-only", t.name)
	}
	i, ok := t.byName[name]
	if !ok {
		return fmt.Errorf("data: table %q has no column %q", t.name, name)
	}
	t.cols[i].Vals = vals
	t.gen.Add(1)
	return nil
}

// Validate checks the structural invariants of the table: all columns have
// the same length. A segment-backed table is validated against its footer
// when opened, and unmaterialized columns have no in-memory length to check.
func (t *Table) Validate() error {
	if t.seg != nil {
		return nil
	}
	n := t.NumRows()
	for i := range t.cols {
		if len(t.cols[i].Vals) != n {
			return fmt.Errorf("data: table %q: column %q has %d rows, want %d",
				t.name, t.cols[i].Name, len(t.cols[i].Vals), n)
		}
	}
	return nil
}

// Row materializes row i as a fresh slice in column declaration order.
// It is intended for tests and small result sets; scans should use OpenChunks.
func (t *Table) Row(i int) ([]int64, error) {
	if i < 0 || i >= t.NumRows() {
		return nil, fmt.Errorf("data: table %q: row %d out of range [0,%d)", t.name, i, t.NumRows())
	}
	row := make([]int64, len(t.cols))
	for c := range t.cols {
		row[c] = t.cols[c].Vals[i]
	}
	return row, nil
}

// Chunk is one contiguous row range of a table, exposed as column sub-slices.
// Cols[i] holds the values of the i-th requested column for the chunk's rows;
// all sub-slices have equal length and share the table's backing storage, so
// they must not be modified. Chunks let scan consumers read columns directly
// (no per-row copy) and are the unit of work of parallel shared scans.
type Chunk struct {
	// Start is the table row index of the chunk's first row.
	Start int
	// Seq is the chunk's index in scan order — the sequence number parallel
	// consumers carry so per-chunk partials merge back in scan order no
	// matter which pool worker processed the chunk.
	Seq int
	// Cols holds one sub-slice per requested column, in request order.
	Cols [][]int64
}

// Len returns the number of rows in the chunk.
func (c Chunk) Len() int {
	if len(c.Cols) == 0 {
		return 0
	}
	return len(c.Cols[0])
}
