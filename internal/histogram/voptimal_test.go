package histogram

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// sseOf computes the total within-bucket frequency variance of a bucketing.
func sseOf(pairs []ValueFreq, h *Histogram) float64 {
	total := 0.0
	for _, b := range h.Buckets {
		var fs []float64
		for _, p := range pairs {
			if b.Contains(p.Value) {
				fs = append(fs, p.Freq)
			}
		}
		mean := 0.0
		for _, f := range fs {
			mean += f
		}
		mean /= float64(len(fs))
		for _, f := range fs {
			total += (f - mean) * (f - mean)
		}
	}
	return total
}

func TestVOptimalBasics(t *testing.T) {
	if _, err := FromPairsVOptimal(nil, 0); err == nil {
		t.Error("nb=0: want error")
	}
	if _, err := FromPairsVOptimal([]ValueFreq{{2, 1}, {1, 1}}, 3); err == nil {
		t.Error("unsorted: want error")
	}
	if _, err := FromPairsVOptimal([]ValueFreq{{1, math.NaN()}}, 3); err == nil {
		t.Error("NaN freq: want error")
	}
	h, err := FromPairsVOptimal(nil, 5)
	if err != nil || h.NumBuckets() != 0 {
		t.Errorf("empty input: %v, %v", h, err)
	}
	// nb >= m is exact.
	pairs := []ValueFreq{{1, 3}, {5, 2}, {9, 7}}
	h, err = FromPairsVOptimal(pairs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBuckets() != 3 || h.EstimateEq(9) != 7 {
		t.Errorf("exact case: %v", h)
	}
}

func TestVOptimalSplitsAtVariance(t *testing.T) {
	// Two flat plateaus: frequencies 10,10,10 then 100,100,100. With 2
	// buckets the optimal split is exactly between them (SSE 0).
	pairs := []ValueFreq{{1, 10}, {2, 10}, {3, 10}, {4, 100}, {5, 100}, {6, 100}}
	h, err := FromPairsVOptimal(pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBuckets() != 2 {
		t.Fatalf("buckets = %d", h.NumBuckets())
	}
	if h.Buckets[0].Hi != 3 || h.Buckets[1].Lo != 4 {
		t.Errorf("split = %v", h.Buckets)
	}
	if got := sseOf(pairs, h); got > 1e-9 {
		t.Errorf("SSE = %v, want 0", got)
	}
}

// TestVOptimalBeatsOthersOnSSE: V-Optimal's defining property — its
// within-bucket variance is minimal, so no other construction can beat it.
func TestVOptimalBeatsOthersOnSSE(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(200)
	}
	pairs := Tally(vals)
	const nb = 10
	vopt, err := FromPairsVOptimal(pairs, nb)
	if err != nil {
		t.Fatal(err)
	}
	vsse := sseOf(pairs, vopt)
	for _, m := range []Method{MaxDiffArea, MaxDiffFreq, EquiDepth, EquiWidth} {
		h, err := FromPairs(pairs, nb, m)
		if err != nil {
			t.Fatal(err)
		}
		if s := sseOf(pairs, h); s < vsse-1e-6 {
			t.Errorf("%v SSE %v beats V-Optimal %v", m, s, vsse)
		}
	}
}

// Property: V-Optimal preserves totals, respects the budget, and validates.
func TestVOptimalQuick(t *testing.T) {
	f := func(raw []uint8, nbSeed uint8) bool {
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v % 64)
		}
		nb := int(nbSeed%15) + 1
		h, err := FromValues(vals, nb, VOptimal)
		if err != nil {
			return false
		}
		if h.Validate() != nil || h.NumBuckets() > nb {
			return false
		}
		return math.Abs(h.TotalFreq()-float64(len(vals))) < 1e-6*float64(len(vals)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	vals := make([]int64, 3000)
	for i := range vals {
		vals[i] = rng.Int63n(1000) - 500
	}
	h, err := FromValues(vals, 50, MaxDiffArea)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Buckets) != len(h.Buckets) {
		t.Fatalf("bucket count changed: %d vs %d", len(back.Buckets), len(h.Buckets))
	}
	for i := range h.Buckets {
		if back.Buckets[i] != h.Buckets[i] {
			t.Errorf("bucket %d changed: %+v vs %+v", i, back.Buckets[i], h.Buckets[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Error("garbage: want error")
	}
	if _, err := Read(strings.NewReader(`{"version":99,"buckets":[]}`)); err == nil {
		t.Error("bad version: want error")
	}
	// Overlapping buckets fail validation on read.
	bad := `{"version":1,"buckets":[{"lo":0,"hi":5,"f":1,"d":1},{"lo":3,"hi":9,"f":1,"d":1}]}`
	if _, err := Read(strings.NewReader(bad)); err == nil {
		t.Error("invalid buckets: want error")
	}
}
