package histogram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// exactJoinSize computes |{(r,s) : r == s}| over two multisets.
func exactJoinSize(xs, ys []int64) float64 {
	counts := map[int64]int{}
	for _, x := range xs {
		counts[x]++
	}
	total := 0
	for _, y := range ys {
		total += counts[y]
	}
	return float64(total)
}

// TestJoinCardinalityExactBuckets: with one bucket per value on both sides,
// the containment estimate is exact: per shared value v the aligned piece has
// f1=c1(v), f2=c2(v), d1=d2=1, contributing c1*c2 — the true match count.
func TestJoinCardinalityExactBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]int64, 2000)
	ys := make([]int64, 1500)
	for i := range xs {
		xs[i] = rng.Int63n(50)
	}
	for i := range ys {
		ys[i] = rng.Int63n(50)
	}
	h1, err := FromValues(xs, 1<<20, MaxDiffArea)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := FromValues(ys, 1<<20, MaxDiffArea)
	if err != nil {
		t.Fatal(err)
	}
	want := exactJoinSize(xs, ys)
	got := JoinCardinality(h1, h2)
	if math.Abs(got-want) > 1e-6*want {
		t.Errorf("JoinCardinality = %v, want %v", got, want)
	}
}

func TestJoinCardinalityDisjoint(t *testing.T) {
	h1 := &Histogram{Buckets: []Bucket{{Lo: 0, Hi: 9, Freq: 100, Distinct: 10}}}
	h2 := &Histogram{Buckets: []Bucket{{Lo: 100, Hi: 109, Freq: 100, Distinct: 10}}}
	if got := JoinCardinality(h1, h2); got != 0 {
		t.Errorf("disjoint join = %v, want 0", got)
	}
	if got := JoinCardinality(&Histogram{}, h2); got != 0 {
		t.Errorf("empty side join = %v", got)
	}
}

func TestJoinCardinalityContainmentFormula(t *testing.T) {
	// One aligned bucket: f1=100,d1=10 and f2=60,d2=20 over the same range.
	// Containment: 100*60/max(10,20) = 300.
	h1 := &Histogram{Buckets: []Bucket{{Lo: 0, Hi: 19, Freq: 100, Distinct: 10}}}
	h2 := &Histogram{Buckets: []Bucket{{Lo: 0, Hi: 19, Freq: 60, Distinct: 20}}}
	if got := JoinCardinality(h1, h2); math.Abs(got-300) > 1e-9 {
		t.Errorf("JoinCardinality = %v, want 300", got)
	}
}

func TestJoinPartialOverlapSplitsBuckets(t *testing.T) {
	// h1: one wide bucket [0,19]; h2: two buckets [0,9],[10,19]. Alignment
	// must split h1's bucket and weight each half by its covered fraction.
	h1 := &Histogram{Buckets: []Bucket{{Lo: 0, Hi: 19, Freq: 200, Distinct: 20}}}
	h2 := &Histogram{Buckets: []Bucket{
		{Lo: 0, Hi: 9, Freq: 30, Distinct: 10},
		{Lo: 10, Hi: 19, Freq: 70, Distinct: 10},
	}}
	// Each half of h1: f=100, d=10. Piece 1: 100*30/10=300. Piece 2:
	// 100*70/10=700. Total 1000.
	if got := JoinCardinality(h1, h2); math.Abs(got-1000) > 1e-9 {
		t.Errorf("JoinCardinality = %v, want 1000", got)
	}
}

func TestContainmentMultiplicity(t *testing.T) {
	hR := &Histogram{Buckets: []Bucket{{Lo: 0, Hi: 9, Freq: 100, Distinct: 10}}}
	hS := &Histogram{Buckets: []Bucket{{Lo: 0, Hi: 9, Freq: 50, Distinct: 5}}}
	// dvS(5) <= dvR(10): m = fR/dvR = 10.
	if got := ContainmentMultiplicity(hR, hS, 3); math.Abs(got-10) > 1e-9 {
		t.Errorf("m = %v, want 10", got)
	}
	// Probe side denser in distinct groups (aligned buckets, dvS > dvR):
	// m = fR/dvR * dvR/dvS = fR/dvS, the paper's formula.
	hS2 := &Histogram{Buckets: []Bucket{{Lo: 0, Hi: 9, Freq: 50, Distinct: 10}}}
	hR2 := &Histogram{Buckets: []Bucket{{Lo: 0, Hi: 9, Freq: 100, Distinct: 5}}}
	if got := ContainmentMultiplicity(hR2, hS2, 3); math.Abs(got-100.0/10.0) > 1e-9 {
		t.Errorf("m = %v, want 10 (fR/dvS with aligned buckets)", got)
	}
	// Unaligned buckets with equal densities (25 distinct over width 40 vs
	// 10 over width 10 is sparser, not denser): no damping, m = fR/dvR.
	hSWide := &Histogram{Buckets: []Bucket{{Lo: 0, Hi: 39, Freq: 50, Distinct: 25}}}
	if got := ContainmentMultiplicity(hR, hSWide, 3); math.Abs(got-10) > 1e-9 {
		t.Errorf("m = %v, want 10 (sparser probe side must not damp)", got)
	}
	// Unaligned buckets with equal densities (5 distinct over width 5 vs 10
	// over width 10): no damping either.
	hSNarrowDense := &Histogram{Buckets: []Bucket{{Lo: 0, Hi: 4, Freq: 50, Distinct: 5}}}
	if got := ContainmentMultiplicity(hR, hSNarrowDense, 3); math.Abs(got-10) > 1e-9 {
		t.Errorf("m = %v, want 10 (equal densities)", got)
	}
	// Genuinely denser probe side: build density 0.5 (5 distinct over width
	// 10) vs probe density 1 (5 over width 5) damps by 0.5:
	// m = (100/5) * 0.5 = 10.
	hRSparse := &Histogram{Buckets: []Bucket{{Lo: 0, Hi: 9, Freq: 100, Distinct: 5}}}
	if got := ContainmentMultiplicity(hRSparse, hSNarrowDense, 3); math.Abs(got-10) > 1e-9 {
		t.Errorf("m = %v, want 10 (density-ratio damping)", got)
	}
	// y outside hR: multiplicity 0.
	if got := ContainmentMultiplicity(hR, hS, 50); got != 0 {
		t.Errorf("m outside hR = %v, want 0", got)
	}
	// y outside hS but inside hR: fall back to fR/dvR.
	hSNarrow := &Histogram{Buckets: []Bucket{{Lo: 0, Hi: 4, Freq: 50, Distinct: 5}}}
	if got := ContainmentMultiplicity(hR, hSNarrow, 7); math.Abs(got-10) > 1e-9 {
		t.Errorf("m outside hS = %v, want 10", got)
	}
	// Degenerate zero-distinct bucket contributes nothing.
	hZero := &Histogram{Buckets: []Bucket{{Lo: 0, Hi: 9, Freq: 0, Distinct: 0}}}
	if got := ContainmentMultiplicity(hZero, hS, 3); got != 0 {
		t.Errorf("m with zero distinct = %v, want 0", got)
	}
}

// Property: with exact histograms on both sides (one bucket per value), the
// sum of m-Oracle multiplicities over the probe tuples equals the true join
// size — per probe y the oracle returns exactly count_R(y) since dv = 1 in
// both buckets. With coarser histograms the oracle stays non-negative and
// bounded by the containing bucket's frequency.
func TestMultiplicityExactAndBoundedQuick(t *testing.T) {
	f := func(rawX, rawY []uint8, nbR uint8) bool {
		if len(rawX) == 0 || len(rawY) == 0 {
			return true
		}
		xs := make([]int64, len(rawX))
		for i, v := range rawX {
			xs[i] = int64(v % 32)
		}
		ys := make([]int64, len(rawY))
		for i, v := range rawY {
			ys[i] = int64(v % 32)
		}
		hRExact, err := FromValues(xs, 1<<20, MaxDiffArea)
		if err != nil {
			return false
		}
		hSExact, err := FromValues(ys, 1<<20, MaxDiffArea)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, y := range ys {
			sum += ContainmentMultiplicity(hRExact, hSExact, y)
		}
		if math.Abs(sum-exactJoinSize(xs, ys)) > 1e-6*(sum+1) {
			return false
		}
		hR, err := FromValues(xs, int(nbR%10)+1, MaxDiffArea)
		if err != nil {
			return false
		}
		for _, y := range ys {
			m := ContainmentMultiplicity(hR, hSExact, y)
			if m < 0 {
				return false
			}
			if b, ok := hR.Locate(y); ok && m > b.Freq+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: JoinCardinality is symmetric and non-negative.
func TestJoinSymmetricQuick(t *testing.T) {
	f := func(rawX, rawY []uint8, nb1, nb2 uint8) bool {
		xs := make([]int64, len(rawX))
		for i, v := range rawX {
			xs[i] = int64(v)
		}
		ys := make([]int64, len(rawY))
		for i, v := range rawY {
			ys[i] = int64(v)
		}
		h1, err := FromValues(xs, int(nb1%20)+1, MaxDiffArea)
		if err != nil {
			return false
		}
		h2, err := FromValues(ys, int(nb2%20)+1, MaxDiffFreq)
		if err != nil {
			return false
		}
		a := JoinCardinality(h1, h2)
		b := JoinCardinality(h2, h1)
		return a >= 0 && math.Abs(a-b) <= 1e-6*(a+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
