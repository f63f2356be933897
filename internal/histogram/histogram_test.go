package histogram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustFromValues(t *testing.T, vals []int64, nb int, m Method) *Histogram {
	t.Helper()
	h, err := FromValues(vals, nb, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("invalid histogram: %v (%v)", err, h)
	}
	return h
}

func TestTally(t *testing.T) {
	pairs := Tally([]int64{3, 1, 3, 3, 2})
	want := []ValueFreq{{1, 1}, {2, 1}, {3, 3}}
	if len(pairs) != len(want) {
		t.Fatalf("pairs = %v", pairs)
	}
	for i := range want {
		if pairs[i] != want[i] {
			t.Errorf("pairs[%d] = %v, want %v", i, pairs[i], want[i])
		}
	}
	if got := Tally(nil); len(got) != 0 {
		t.Errorf("Tally(nil) = %v", got)
	}
	if got := TallyMap(map[int64]float64{5: 0, 6: -1, 7: 2}); len(got) != 1 || got[0].Value != 7 {
		t.Errorf("TallyMap should drop non-positive freqs: %v", got)
	}
}

func TestFromPairsErrors(t *testing.T) {
	if _, err := FromPairs(nil, 0, MaxDiffArea); err == nil {
		t.Error("nb=0: want error")
	}
	if _, err := FromPairs([]ValueFreq{{2, 1}, {1, 1}}, 4, MaxDiffArea); err == nil {
		t.Error("unsorted pairs: want error")
	}
	if _, err := FromPairs([]ValueFreq{{1, -2}}, 4, MaxDiffArea); err == nil {
		t.Error("negative freq: want error")
	}
	if _, err := FromPairs([]ValueFreq{{1, math.NaN()}}, 4, MaxDiffArea); err == nil {
		t.Error("NaN freq: want error")
	}
	if _, err := FromPairs([]ValueFreq{{1, 1}}, 4, Method(99)); err == nil {
		t.Error("unknown method: want error")
	}
}

func TestEmptyHistogram(t *testing.T) {
	h := mustFromValues(t, nil, 10, MaxDiffArea)
	if h.NumBuckets() != 0 || h.TotalFreq() != 0 {
		t.Errorf("empty histogram: %v", h)
	}
	if _, ok := h.Min(); ok {
		t.Error("Min of empty: want ok=false")
	}
	if _, ok := h.Max(); ok {
		t.Error("Max of empty: want ok=false")
	}
	if got := h.EstimateRange(0, 100); got != 0 {
		t.Errorf("EstimateRange on empty = %v", got)
	}
	if got := h.ScaleTo(50); got.NumBuckets() != 0 {
		t.Errorf("ScaleTo on empty = %v", got)
	}
}

func TestExactWhenEnoughBuckets(t *testing.T) {
	vals := []int64{1, 1, 2, 5, 5, 5, 9}
	for _, m := range []Method{MaxDiffArea, MaxDiffFreq, EquiDepth, EquiWidth} {
		h := mustFromValues(t, vals, 100, m)
		// With nb >= distinct values MaxDiff is exact (one bucket per value);
		// other methods may merge but must still preserve totals.
		if got := h.TotalFreq(); got != 7 {
			t.Errorf("%v: TotalFreq = %v, want 7", m, got)
		}
		if m == MaxDiffArea || m == MaxDiffFreq {
			if h.NumBuckets() != 4 {
				t.Errorf("%v: buckets = %d, want 4 (exact)", m, h.NumBuckets())
			}
			if got := h.EstimateEq(5); got != 3 {
				t.Errorf("%v: EstimateEq(5) = %v, want 3", m, got)
			}
			if got := h.EstimateEq(3); got != 0 {
				t.Errorf("%v: EstimateEq(3) = %v, want 0 (gap)", m, got)
			}
		}
	}
}

func TestBucketBudgetRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	for _, m := range []Method{MaxDiffArea, MaxDiffFreq, EquiDepth, EquiWidth} {
		for _, nb := range []int{1, 2, 7, 50} {
			h := mustFromValues(t, vals, nb, m)
			if h.NumBuckets() > nb {
				t.Errorf("%v nb=%d: got %d buckets", m, nb, h.NumBuckets())
			}
			if math.Abs(h.TotalFreq()-5000) > 1e-6 {
				t.Errorf("%v nb=%d: TotalFreq = %v", m, nb, h.TotalFreq())
			}
		}
	}
}

func TestEstimateRange(t *testing.T) {
	// Single bucket [0,9] freq 100, distinct 10.
	h := &Histogram{Buckets: []Bucket{{Lo: 0, Hi: 9, Freq: 100, Distinct: 10}}}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		lo, hi int64
		want   float64
	}{
		{0, 9, 100},
		{0, 4, 50},
		{5, 9, 50},
		{-10, 100, 100},
		{3, 3, 10},
		{10, 20, 0},
		{-5, -1, 0},
		{5, 4, 0},
	}
	for _, c := range cases {
		if got := h.EstimateRange(c.lo, c.hi); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("EstimateRange(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

func TestLocate(t *testing.T) {
	h := &Histogram{Buckets: []Bucket{
		{Lo: 0, Hi: 4, Freq: 10, Distinct: 5},
		{Lo: 10, Hi: 14, Freq: 20, Distinct: 5},
	}}
	if b, ok := h.Locate(2); !ok || b.Lo != 0 {
		t.Errorf("Locate(2) = %v,%v", b, ok)
	}
	if b, ok := h.Locate(10); !ok || b.Lo != 10 {
		t.Errorf("Locate(10) = %v,%v", b, ok)
	}
	for _, v := range []int64{-1, 5, 9, 15} {
		if _, ok := h.Locate(v); ok {
			t.Errorf("Locate(%d): want ok=false", v)
		}
	}
}

func TestScale(t *testing.T) {
	h := &Histogram{Buckets: []Bucket{
		{Lo: 0, Hi: 9, Freq: 80, Distinct: 10},
		{Lo: 10, Hi: 19, Freq: 20, Distinct: 10},
	}}
	s := h.ScaleTo(50)
	if math.Abs(s.TotalFreq()-50) > 1e-9 {
		t.Errorf("ScaleTo total = %v", s.TotalFreq())
	}
	if math.Abs(s.Buckets[0].Freq-40) > 1e-9 || math.Abs(s.Buckets[1].Freq-10) > 1e-9 {
		t.Errorf("scaled buckets = %v", s.Buckets)
	}
	// Distinct clamped to freq when freq drops below it.
	tiny := h.ScaleTo(5)
	for _, b := range tiny.Buckets {
		if b.Distinct > b.Freq {
			t.Errorf("distinct %v > freq %v after scaling", b.Distinct, b.Freq)
		}
	}
	// Original untouched.
	if h.TotalFreq() != 100 {
		t.Errorf("original mutated: %v", h.TotalFreq())
	}
}

func TestValidateCatchesBadHistograms(t *testing.T) {
	bad := []*Histogram{
		{Buckets: []Bucket{{Lo: 5, Hi: 4}}},
		{Buckets: []Bucket{{Lo: 0, Hi: 4, Freq: -1}}},
		{Buckets: []Bucket{{Lo: 0, Hi: 4, Freq: math.NaN()}}},
		{Buckets: []Bucket{{Lo: 0, Hi: 4, Freq: 10, Distinct: 6}}},
		{Buckets: []Bucket{{Lo: 0, Hi: 4, Freq: 1, Distinct: 1}, {Lo: 4, Hi: 8, Freq: 1, Distinct: 1}}},
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestMethodString(t *testing.T) {
	names := map[Method]string{
		MaxDiffArea: "maxdiff-area",
		MaxDiffFreq: "maxdiff-freq",
		EquiDepth:   "equidepth",
		EquiWidth:   "equiwidth",
		Method(42):  "Method(42)",
	}
	for m, want := range names {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestMaxDiffPlacesBoundaryAtSpike(t *testing.T) {
	// Values 1..10 with freq 1, plus value 20 with freq 1000: the big
	// frequency jump should earn its own bucket with only 2 buckets allowed.
	var pairs []ValueFreq
	for v := int64(1); v <= 10; v++ {
		pairs = append(pairs, ValueFreq{v, 1})
	}
	pairs = append(pairs, ValueFreq{20, 1000})
	h, err := FromPairs(pairs, 2, MaxDiffFreq)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBuckets() != 2 {
		t.Fatalf("buckets = %d", h.NumBuckets())
	}
	if h.Buckets[1].Lo != 20 || h.Buckets[1].Freq != 1000 || h.Buckets[1].Distinct != 1 {
		t.Errorf("spike bucket = %+v", h.Buckets[1])
	}
}

// Property: for any data and bucket budget, construction preserves total
// frequency, respects the budget, validates, and estimates the full range as
// the total frequency.
func TestConstructionInvariantsQuick(t *testing.T) {
	methods := []Method{MaxDiffArea, MaxDiffFreq, EquiDepth, EquiWidth}
	f := func(raw []int16, nbSeed uint8) bool {
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		nb := int(nbSeed%60) + 1
		for _, m := range methods {
			h, err := FromValues(vals, nb, m)
			if err != nil {
				return false
			}
			if h.Validate() != nil {
				return false
			}
			if h.NumBuckets() > nb {
				return false
			}
			if math.Abs(h.TotalFreq()-float64(len(vals))) > 1e-6*float64(len(vals)+1) {
				return false
			}
			full := h.EstimateRange(math.MinInt16, math.MaxInt16)
			if math.Abs(full-float64(len(vals))) > 1e-6*float64(len(vals)+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: range estimates are monotone in range width and never negative.
func TestEstimateMonotoneQuick(t *testing.T) {
	f := func(raw []int16, a, b, c int16) bool {
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		h, err := FromValues(vals, 10, MaxDiffArea)
		if err != nil {
			return false
		}
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		inner := h.EstimateRange(lo, hi)
		outer := h.EstimateRange(lo-int64(uint16(c)%100), hi+int64(uint16(c)%100))
		return inner >= 0 && outer >= inner-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
