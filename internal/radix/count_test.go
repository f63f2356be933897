package radix

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// tallyRef is the counting kernel's map oracle: value -> occurrences, read
// back in ascending value order.
func tallyRef(vals []int64) (keys, counts []int64) {
	m := make(map[int64]int64, len(vals))
	for _, v := range vals {
		m[v]++
	}
	for v := range m {
		keys = append(keys, v)
	}
	slices.Sort(keys)
	for _, v := range keys {
		counts = append(counts, m[v])
	}
	return keys, counts
}

// readRuns drains every block of r.
func readRuns(r Runs) (keys, counts []int64) {
	for ks, cs := r.Next(); len(ks) > 0; ks, cs = r.Next() {
		keys, counts = append(keys, ks...), append(counts, cs...)
	}
	return keys, counts
}

// checkCount compares Count, and each regime that can hold vals, against
// tallyRef, and checks vals are left untouched. It reports whether Count
// took the dense regime.
func checkCount(t *testing.T, vals []int64) bool {
	t.Helper()
	orig := slices.Clone(vals)
	wantK, wantC := tallyRef(vals)
	check := func(regime string, r Runs) {
		t.Helper()
		if r.Len() != len(wantK) {
			t.Fatalf("%s: Len %d, map reference has %d values", regime, r.Len(), len(wantK))
		}
		gotK, gotC := readRuns(r)
		if !slices.Equal(gotK, wantK) || !slices.Equal(gotC, wantC) {
			t.Fatalf("%s: runs differ from the map reference\ngot  %v %v\nwant %v %v", regime, gotK, gotC, wantK, wantC)
		}
	}
	r := Count(vals)
	check("Count", r)
	if len(vals) > 0 {
		lo, hi := Bounds(vals)
		check("sorted", countSorted(vals, lo, hi))
		if Dense(lo, hi, 1<<16) {
			check("dense", countDense(vals, lo, hi))
		}
	}
	if !slices.Equal(vals, orig) {
		t.Fatal("Count reordered its input")
	}
	return r.table != nil
}

func TestDenseGuard(t *testing.T) {
	for _, tc := range []struct {
		lo, hi int64
		slots  int
		want   bool
	}{
		{0, 0, 1, true},
		{0, 0, 0, false},
		{-5, 4, 10, true},
		{-5, 5, 10, false},
		{math.MaxInt64 - 1, math.MaxInt64, 2, true},
		{math.MinInt64, math.MinInt64 + 1, 2, true},
		// 2^64 values: hi - lo + 1 wraps to 0 in uint64.
		{math.MinInt64, math.MaxInt64, math.MaxInt, false},
		{math.MinInt64, -1, math.MaxInt, false},
	} {
		if got := Dense(tc.lo, tc.hi, tc.slots); got != tc.want {
			t.Errorf("Dense(%d, %d, %d) = %v, want %v", tc.lo, tc.hi, tc.slots, got, tc.want)
		}
	}
}

// TestCountMatchesMapReference runs the kernel on both sides of its guard
// (span <= 2n counts densely, wider spans sort) against the map oracle.
func TestCountMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	uniform := func(n int, lo, span int64) []int64 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = lo + rng.Int63n(span)
		}
		vals[0], vals[n-1] = lo, lo+span-1 // pin the span
		return vals
	}
	for _, tc := range []struct {
		name  string
		vals  []int64
		dense bool
	}{
		{"empty", nil, false},
		{"single", []int64{-9}, true},
		{"all-equal", make([]int64, 300), true},
		{"span 2n", uniform(1000, -700, 2000), true},
		{"span 2n+1", uniform(1000, -700, 2001), false},
		{"more runs than a dense block", uniform(5000, 40, 3*denseBlock), true},
		{"wide ±2^40", uniform(3000, -1<<40, 1<<41), false},
		{"overflow span", []int64{math.MinInt64, math.MaxInt64, 0, -1}, false},
		{"extremes", []int64{math.MaxInt64, math.MinInt64, -1, 0, math.MinInt64, 1, math.MaxInt64, math.MaxInt64}, false},
		{"top of the range", []int64{math.MaxInt64, math.MaxInt64 - 2, math.MaxInt64}, true},
		{"bottom of the range", []int64{math.MinInt64 + 2, math.MinInt64, math.MinInt64}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if dense := checkCount(t, tc.vals); dense != tc.dense {
				t.Fatalf("dense regime %v, want %v", dense, tc.dense)
			}
		})
	}
}

// FuzzTally feeds fuzzKeys' keys to Count and to each regime that can hold
// them (the dense table only up to 2^16 slots) and compares their runs with
// the map oracle.
func FuzzTally(f *testing.F) {
	f.Add([]byte{8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0})
	// One value, three times.
	f.Add([]byte{0, 7, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0})
	// Span overflow: MinInt64 and MaxInt64, so hi - lo + 1 wraps to 0.
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0})
	// Narrow mixed sign: -3, 5, -1, -3 in two-byte keys.
	f.Add([]byte{1, 0xfd, 0xff, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0xfd, 0xff, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		checkCount(t, fuzzKeys(raw))
	})
}
