package data

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAppendColumns(t *testing.T) {
	tab := MustNewTable("R", "x", "a")
	if err := tab.AppendColumns([]int64{1, 2, 3}, []int64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendColumns([]int64{4}, []int64{40}); err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 4 {
		t.Errorf("NumRows = %d, want 4", tab.NumRows())
	}
	if !reflect.DeepEqual(tab.MustColumn("x"), []int64{1, 2, 3, 4}) {
		t.Errorf("x = %v", tab.MustColumn("x"))
	}
	if !reflect.DeepEqual(tab.MustColumn("a"), []int64{10, 20, 30, 40}) {
		t.Errorf("a = %v", tab.MustColumn("a"))
	}
	if err := tab.Validate(); err != nil {
		t.Error(err)
	}
	// Empty append is a no-op.
	if err := tab.AppendColumns(nil, nil); err != nil {
		t.Errorf("empty append: %v", err)
	}
	if tab.NumRows() != 4 {
		t.Errorf("NumRows after empty append = %d", tab.NumRows())
	}
}

func TestAppendColumnsErrors(t *testing.T) {
	tab := MustNewTable("R", "x", "a")
	if err := tab.AppendColumns([]int64{1}); err == nil {
		t.Error("wrong column count: want error")
	}
	if err := tab.AppendColumns([]int64{1, 2}, []int64{10}); err == nil {
		t.Error("ragged columns: want error")
	}
	if tab.NumRows() != 0 {
		t.Errorf("failed append mutated the table: %d rows", tab.NumRows())
	}
}

func TestGrow(t *testing.T) {
	tab := MustNewTable("R", "x")
	tab.Grow(1000)
	x := tab.MustColumn("x")
	if len(x) != 0 {
		t.Fatalf("Grow changed length: %d", len(x))
	}
	if err := tab.AppendRow(7); err != nil {
		t.Fatal(err)
	}
	// After Grow(1000) the first append must not reallocate.
	grown := tab.MustColumn("x")
	if cap(grown) < 1000 {
		t.Errorf("cap = %d, want >= 1000", cap(grown))
	}
	tab.Grow(0)
	tab.Grow(-5)
	if tab.NumRows() != 1 {
		t.Errorf("NumRows = %d", tab.NumRows())
	}
}

// Property: bulk appends in arbitrary batch splits produce the same table as
// row-at-a-time appends.
func TestAppendBatchMatchesRowsQuick(t *testing.T) {
	f := func(rows [][2]int64, splitSeed uint8) bool {
		want := MustNewTable("W", "a", "b")
		for _, r := range rows {
			if err := want.AppendRow(r[0], r[1]); err != nil {
				return false
			}
		}
		got := MustNewTable("G", "a", "b")
		rng := rand.New(rand.NewSource(int64(splitSeed)))
		for i := 0; i < len(rows); {
			n := 1 + rng.Intn(len(rows)-i)
			batch := [][]int64{make([]int64, n), make([]int64, n)}
			for j := 0; j < n; j++ {
				batch[0][j] = rows[i+j][0]
				batch[1][j] = rows[i+j][1]
			}
			got.Grow(n)
			if err := got.AppendColumns(batch...); err != nil {
				return false
			}
			i += n
		}
		return reflect.DeepEqual(got.MustColumn("a"), want.MustColumn("a")) &&
			reflect.DeepEqual(got.MustColumn("b"), want.MustColumn("b"))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
