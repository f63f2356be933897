package exec

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refSortRows is the sort contract: buffer every input row and stable-sort by
// the key column ascending.
func refSortRows(rows [][]int64, idx int) [][]int64 {
	out := make([][]int64, len(rows))
	copy(out, rows)
	sort.SliceStable(out, func(i, j int) bool { return out[i][idx] < out[j][idx] })
	return out
}

// sortCases enumerates the shapes the batch sort must handle: empties,
// single rows, duplicate and negative keys, the int64 extremes (the radix
// kernel's signed order), and presorted and reverse inputs.
func sortCases() map[string][][]int64 {
	rng := rand.New(rand.NewSource(7))
	random := make([][]int64, 300)
	for i := range random {
		random[i] = []int64{rng.Int63n(40) - 20, int64(i)}
	}
	extremes := [][]int64{
		{math.MaxInt64, 0}, {-1, 1}, {math.MinInt64, 2}, {0, 3}, {1, 4},
		{math.MinInt64 + 1, 5}, {math.MaxInt64, 6}, {-1 << 40, 7}, {math.MinInt64, 8},
		{1 << 40, 9}, {-2, 10}, {math.MaxInt64 - 1, 11},
	}
	asc := make([][]int64, 150)
	desc := make([][]int64, 150)
	for i := range asc {
		asc[i] = []int64{int64(i / 3), int64(i)}
		desc[i] = []int64{int64(-i), int64(i)}
	}
	return map[string][][]int64{
		"empty":     {},
		"single":    {{42, 0}},
		"allEqual":  {{5, 0}, {5, 1}, {5, 2}, {5, 3}},
		"random":    random,
		"presorted": asc,
		"reverse":   desc,
		"extremes":  extremes,
	}
}

func TestBatchSortMatchesReference(t *testing.T) {
	for name, rows := range sortCases() {
		tab := makeTable(t, "R", []string{"k", "p"}, rows)
		want := refSortRows(rows, 0)
		if want == nil {
			want = [][]int64{}
		}
		for _, size := range []int{0, 1, 3, 64} {
			bs, err := NewBatchSortSize(NewBatchScan(tab), "R.k", size)
			if err != nil {
				t.Fatal(err)
			}
			got := drainBatches(t, bs)
			if got == nil {
				got = [][]int64{}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s size %d: sort = %v, want %v", name, size, got, want)
			}
		}
	}
}

// TestBatchSortParallelGatherMatchesReference sorts a duplicate-heavy input of
// more than 32k rows (once the threshold at which the gather split into
// parallel blocks) whose payload records input order, so a stability or
// ordering violation anywhere in it shows. Output is checked row by row and
// against the reference, at the default and a small batch size.
func TestBatchSortParallelGatherMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := make([][]int64, 1<<15+1234)
	for i := range rows {
		rows[i] = []int64{rng.Int63n(5000), int64(i)}
	}
	tab := makeTable(t, "G", []string{"k", "v"}, rows)
	want := refSortRows(rows, 0)
	for _, size := range []int{0, 64} {
		bs, err := NewBatchSortSize(NewBatchScan(tab), "G.k", size)
		if err != nil {
			t.Fatal(err)
		}
		got := drainBatches(t, bs)
		for i := 1; i < len(got); i++ {
			if got[i][0] < got[i-1][0] {
				t.Fatalf("size %d: output not sorted at %d", size, i)
			}
			if got[i][0] == got[i-1][0] && got[i][1] < got[i-1][1] {
				t.Fatalf("size %d: output not stable at %d", size, i)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("size %d: sort diverges from the reference", size)
		}
	}
}

// TestBatchSortSelInput drives the sort through a filter, whose output
// batches carry selection vectors, so the gather path over Sel is exercised.
func TestBatchSortSelInput(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var rows [][]int64
	for i := 0; i < 500; i++ {
		rows = append(rows, []int64{rng.Int63n(100) - 50, int64(i)})
	}
	tab := makeTable(t, "R", []string{"k", "p"}, rows)
	f := NewBatchFilter(NewBatchScanSize(tab, 32), rangePred(0, -10, 25))
	bs, err := NewBatchSortSize(f, "R.k", 16)
	if err != nil {
		t.Fatal(err)
	}
	got := drainBatches(t, bs)
	var kept [][]int64
	for _, r := range rows {
		if r[0] >= -10 && r[0] <= 25 {
			kept = append(kept, r)
		}
	}
	want := refSortRows(kept, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sort over Sel batches = %d rows, want %d", len(got), len(want))
	}
}

func TestBatchSortBadColumn(t *testing.T) {
	tab := makeTable(t, "R", []string{"k"}, nil)
	if _, err := NewBatchSort(NewBatchScan(tab), "R.zz"); err == nil {
		t.Error("bad sort column: want error")
	}
}

func TestAdaptiveBatchSize(t *testing.T) {
	cases := []struct{ ncols, want int }{
		{0, DefaultBatchSize},
		{1, DefaultBatchSize},
		{16, DefaultBatchSize}, // 128KiB / (8*16) = exactly 1024 rows
		{17, 512},
		{33, 256},
		{256, MinBatchSize},
		{10000, MinBatchSize},
	}
	for _, c := range cases {
		if got := AdaptiveBatchSize(c.ncols); got != c.want {
			t.Errorf("AdaptiveBatchSize(%d) = %d, want %d", c.ncols, got, c.want)
		}
	}
	// Always a power of two within [MinBatchSize, DefaultBatchSize], and
	// monotonically non-increasing in the column count.
	prev := DefaultBatchSize
	for n := 1; n < 2000; n++ {
		got := AdaptiveBatchSize(n)
		if got < MinBatchSize || got > DefaultBatchSize || got&(got-1) != 0 {
			t.Fatalf("AdaptiveBatchSize(%d) = %d out of contract", n, got)
		}
		if got > prev {
			t.Fatalf("AdaptiveBatchSize not monotone at %d: %d > %d", n, got, prev)
		}
		prev = got
	}
}
