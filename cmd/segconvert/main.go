// Command segconvert converts tables into the engine's block-compressed
// segment format and inspects existing segment files:
//
//	segconvert -csv T.csv -o T.seg [-name T] [-block 4096] [-raw]
//	segconvert -gen 10000000 -o big.seg [-name S] [-seed 1]
//	segconvert -inspect T.seg
//
// -csv streams a CSV file (header row, int64 fields) into a segment without
// ever materializing the table: peak memory is one parse batch plus one
// pending row group, whatever the row count. -gen writes a deterministic
// synthetic table (columns id, dim, val) of the given size the same way —
// handy for exercising out-of-core scans without shipping gigabytes of CSV.
// -inspect prints a segment's footer: schema, row groups, per-column
// min/max, and the on-disk compression ratio.
package main

import (
	"bytes"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/exec"
)

func main() {
	var (
		csvPath = flag.String("csv", "", "CSV file to convert (header row, one int64 per column)")
		gen     = flag.Int64("gen", 0, "generate a synthetic table with this many rows instead of reading CSV")
		inspect = flag.String("inspect", "", "print the footer and stats of an existing segment file")
		out     = flag.String("o", "", "output segment path (required with -csv or -gen)")
		name    = flag.String("name", "", "table name stored in the segment (default: input file base name, or S for -gen)")
		block   = flag.Int("block", 0, "rows per block (0 = default; the scan chunk grid is fastest at the default)")
		raw     = flag.Bool("raw", false, "store blocks uncompressed (encoding is still chosen per block otherwise)")
		seed    = flag.Int64("seed", 1, "seed for -gen")
	)
	flag.Parse()
	if err := run(*csvPath, *gen, *inspect, *out, *name, *block, *raw, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "segconvert:", err)
		os.Exit(1)
	}
}

func run(csvPath string, gen int64, inspect, out, name string, block int, raw bool, seed int64) error {
	switch {
	case inspect != "":
		return inspectSegment(inspect)
	case csvPath != "" && gen > 0:
		return fmt.Errorf("-csv and -gen are mutually exclusive")
	case csvPath == "" && gen <= 0:
		return fmt.Errorf("nothing to do: pass -csv, -gen, or -inspect")
	case out == "":
		return fmt.Errorf("missing -o output path")
	}
	if csvPath != "" {
		if name == "" {
			name = strings.TrimSuffix(filepath.Base(csvPath), filepath.Ext(csvPath))
		}
		return convertCSV(csvPath, out, name, block, raw)
	}
	if name == "" {
		name = "S"
	}
	return generate(out, name, gen, block, raw, seed)
}

// newWriter creates a segment writer that encodes the columns of each row
// group side by side, one exec.ForkJoin per group at GOMAXPROCS width.
func newWriter(out, name string, columns []string, block int, raw bool) (*data.SegmentWriter, error) {
	w, err := data.CreateSegment(out, name, columns)
	if err != nil {
		return nil, err
	}
	w.SetBlockRows(block)
	w.SetForceRaw(raw)
	w.SetFork(func(n int, task func(i int)) { exec.ForkJoin(n, 0, task) })
	return w, nil
}

func convertCSV(csvPath, out, name string, block int, raw bool) error {
	f, err := os.Open(csvPath)
	if err != nil {
		return err
	}
	defer f.Close() //statcheck:ignore droppederr read-only file, close errors carry no data loss
	return convertCSVFrom(f, out, name, block, raw)
}

// convertCSVFrom streams the CSV read from r into a segment. The input is
// read once, front to back, so it may be a pipe: the bytes consumed to learn
// the header are replayed ahead of the rest of r.
func convertCSVFrom(r io.Reader, out, name string, block int, raw bool) error {
	var head bytes.Buffer
	rec, err := csv.NewReader(io.TeeReader(r, &head)).Read()
	if err != nil {
		return fmt.Errorf("reading CSV header: %w", err)
	}
	w, err := newWriter(out, name, rec, block, raw)
	if err != nil {
		return err
	}
	rows, err := data.StreamCSVToSegment(name, io.MultiReader(&head, r), w)
	if err != nil {
		return err
	}
	if err := w.Finish(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: table %q, %d rows, %d columns\n", out, name, rows, len(rec))
	return inspectSegment(out)
}

// generate streams a deterministic synthetic table into a segment: id is a
// sorted sequence (delta-friendly), dim cycles over a small domain
// (const/delta-friendly), and val is a seeded xorshift stream (incompressible
// — keeps raw-block coverage honest).
func generate(out, name string, rows int64, block int, raw bool, seed int64) error {
	w, err := newWriter(out, name, []string{"id", "dim", "val"}, block, raw)
	if err != nil {
		return err
	}
	const batch = 8192
	cols := [][]int64{
		make([]int64, 0, batch),
		make([]int64, 0, batch),
		make([]int64, 0, batch),
	}
	x := uint64(seed)*2862933555777941757 + 3037000493
	for i := int64(0); i < rows; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		cols[0] = append(cols[0], i*2)
		cols[1] = append(cols[1], (i/1000)%7)
		cols[2] = append(cols[2], int64(x%1_000_000))
		if len(cols[0]) == batch {
			if err := w.Append(cols); err != nil {
				return err
			}
			for c := range cols {
				cols[c] = cols[c][:0]
			}
		}
	}
	if len(cols[0]) > 0 {
		if err := w.Append(cols); err != nil {
			return err
		}
	}
	if err := w.Finish(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: table %q, %d rows, 3 columns\n", out, name, rows)
	return inspectSegment(out)
}

func inspectSegment(path string) error {
	s, err := data.OpenSegment(path)
	if err != nil {
		return err
	}
	defer s.Close() //statcheck:ignore droppederr read-only file, close errors carry no data loss
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	rawBytes := s.NumRows() * int64(len(s.ColumnNames())) * 8
	fmt.Printf("segment %s\n", path)
	fmt.Printf("  table      %s\n", s.Name())
	fmt.Printf("  rows       %d\n", s.NumRows())
	fmt.Printf("  groups     %d x %d rows\n", s.NumGroups(), s.BlockRows())
	fmt.Printf("  file       %d bytes (blocks %d, raw equivalent %d, ratio %.3f)\n",
		info.Size(), s.DataBytes(), rawBytes, ratio(s.DataBytes(), rawBytes))
	for _, c := range s.ColumnNames() {
		lo, hi, ok, err := s.ColumnMinMax(c)
		if err != nil {
			return err
		}
		if !ok {
			fmt.Printf("  column %-10s (empty)\n", c)
			continue
		}
		fmt.Printf("  column %-10s min %d  max %d\n", c, lo, hi)
	}
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
