package data

import (
	"path/filepath"
	"reflect"
	"testing"
)

func writeTestTable(t *testing.T, name string) *Table {
	t.Helper()
	tab := MustNewTable(name, "x", "y")
	for i := 0; i < 100; i++ {
		if err := tab.AppendRow(int64(i), int64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestLoadCatalogCSV(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"R", "S"} {
		if err := WriteCSVFile(writeTestTable(t, name), filepath.Join(dir, name+".csv")); err != nil {
			t.Fatal(err)
		}
	}

	// Explicit table list.
	cat, err := LoadCatalog(dir, "", []string{"R"})
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.Names(); !reflect.DeepEqual(got, []string{"R"}) {
		t.Fatalf("explicit list loaded %v, want [R]", got)
	}

	// Discovery loads every .csv in sorted order.
	cat, err = LoadCatalog(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.Names(); !reflect.DeepEqual(got, []string{"R", "S"}) {
		t.Fatalf("discovery loaded %v, want [R S]", got)
	}
	if n := cat.MustTable("S").NumRows(); n != 100 {
		t.Fatalf("S has %d rows, want 100", n)
	}
}

func TestLoadCatalogSegments(t *testing.T) {
	dir := t.TempDir()
	tab := writeTestTable(t, "R")
	if err := WriteSegment(filepath.Join(dir, "R.seg"), tab); err != nil {
		t.Fatal(err)
	}
	cat, err := LoadCatalog("", dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := cat.MustTable("R")
	if got.seg == nil {
		t.Fatal("segment-loaded table is not segment-backed")
	}
	want, _ := tab.Column("x")
	have, err := got.Column("x")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(have, want) {
		t.Fatal("segment round-trip changed column x")
	}
}

func TestLoadCatalogErrors(t *testing.T) {
	if _, err := LoadCatalog("a", "b", nil); err == nil {
		t.Fatal("want error for both -csv and -segments")
	}
	if _, err := LoadCatalog("", "", nil); err == nil {
		t.Fatal("want error for neither directory")
	}
	if _, err := LoadCatalog(t.TempDir(), "", nil); err == nil {
		t.Fatal("want error for empty directory")
	}
	if _, err := LoadCatalog(t.TempDir(), "", []string{"missing"}); err == nil {
		t.Fatal("want error for missing table file")
	}
}
