package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/sitstats/sits/internal/data"
)

func TestConvertCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "T.csv")
	body := "a,b\n1,10\n2,20\n3,-30\n"
	if err := os.WriteFile(csvPath, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "T.seg")
	if err := run(csvPath, 0, "", segPath, "", 0, false, 1); err != nil {
		t.Fatal(err)
	}
	tab, err := data.OpenSegmentTable(segPath)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	if tab.Name() != "T" {
		t.Fatalf("table name %q, want T (from the file base name)", tab.Name())
	}
	a, err := tab.Column("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tab.Column("b")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, []int64{1, 2, 3}) || !reflect.DeepEqual(b, []int64{10, 20, -30}) {
		t.Fatalf("round-tripped columns a=%v b=%v", a, b)
	}
}

// TestConvertCSVFromPipe converts a CSV read from a pipe, which cannot
// seek: the header is read once and the rest streamed, and a header longer
// than one read of the CSV reader's buffer still round-trips.
func TestConvertCSVFromPipe(t *testing.T) {
	long := strings.Repeat("c", 5000)
	var body strings.Builder
	body.WriteString("a,\"b\"," + long + "\n")
	for i := range 3000 {
		fmt.Fprintf(&body, "%d,%d,%d\n", i, -i, i%7)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	go func() {
		defer pw.Close() //statcheck:ignore droppederr the reader sees EOF either way
		if _, err := io.WriteString(pw, body.String()); err != nil {
			t.Error(err)
		}
	}()
	segPath := filepath.Join(t.TempDir(), "P.seg")
	if err := convertCSVFrom(pr, segPath, "P", 0, false); err != nil {
		t.Fatal(err)
	}
	tab, err := data.OpenSegmentTable(segPath)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	if got := tab.ColumnNames(); !reflect.DeepEqual(got, []string{"a", "b", long}) {
		t.Fatalf("columns %q", got)
	}
	for _, c := range []struct {
		name string
		at   func(i int) int64
	}{{"a", func(i int) int64 { return int64(i) }}, {"b", func(i int) int64 { return int64(-i) }}, {long, func(i int) int64 { return int64(i % 7) }}} {
		col, err := tab.Column(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if len(col) != 3000 {
			t.Fatalf("column %.8s has %d rows, want 3000", c.name, len(col))
		}
		for i, v := range col {
			if v != c.at(i) {
				t.Fatalf("column %.8s row %d = %d, want %d", c.name, i, v, c.at(i))
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.seg")
	p2 := filepath.Join(dir, "b.seg")
	for _, p := range []string{p1, p2} {
		if err := run("", 10_000, "", p, "S", 0, false, 7); err != nil {
			t.Fatal(err)
		}
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Fatal("two -gen runs with the same seed produced different files")
	}
	if err := run("", 0, p1, "", "", 0, false, 1); err != nil {
		t.Fatalf("inspect: %v", err)
	}
}

func TestRunFlagValidation(t *testing.T) {
	if err := run("x.csv", 5, "", "out", "", 0, false, 1); err == nil {
		t.Fatal("want error for -csv with -gen")
	}
	if err := run("", 0, "", "", "", 0, false, 1); err == nil {
		t.Fatal("want error for no action")
	}
	if err := run("", 5, "", "", "", 0, false, 1); err == nil {
		t.Fatal("want error for missing -o")
	}
}
