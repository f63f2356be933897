package sample

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewReservoirErrors(t *testing.T) {
	if _, err := NewReservoir(0, 1); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := NewReservoir(-1, 1); err == nil {
		t.Error("k<0: want error")
	}
}

func TestReservoirFillsThenStaysFixed(t *testing.T) {
	r, err := NewReservoir(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		r.Add(i)
	}
	if len(r.Sample()) != 5 || r.Seen() != 5 {
		t.Fatalf("partial fill: len=%d seen=%d", len(r.Sample()), r.Seen())
	}
	for i := int64(5); i < 1000; i++ {
		r.Add(i)
	}
	if len(r.Sample()) != 10 {
		t.Errorf("len = %d, want 10", len(r.Sample()))
	}
	if r.Seen() != 1000 {
		t.Errorf("seen = %d, want 1000", r.Seen())
	}
	if r.Cap() != 10 {
		t.Errorf("cap = %d", r.Cap())
	}
}

// TestReservoirUniform: every stream position should appear in the sample
// with probability k/n. Run many trials and check per-element inclusion
// frequencies are within a loose band.
func TestReservoirUniform(t *testing.T) {
	const (
		k      = 5
		n      = 50
		trials = 20000
	)
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		r, err := NewReservoir(k, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < n; i++ {
			r.Add(i)
		}
		for _, v := range r.Sample() {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.15*want {
			t.Errorf("position %d sampled %d times, want ~%.0f", i, c, want)
		}
	}
}

// TestAddNMatchesRepeatedAdd: AddN must preserve the inclusion probability of
// earlier elements: after k distinct fills and a huge batch of v, the
// fraction of slots still holding early values should be ~k/(k+batch).
func TestAddNInclusionProbability(t *testing.T) {
	const (
		k     = 100
		batch = 900
	)
	early := 0
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		r, err := NewReservoir(k, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < k; i++ {
			r.Add(-1) // early marker
		}
		r.AddN(7, batch)
		for _, v := range r.Sample() {
			if v == -1 {
				early++
			}
		}
	}
	got := float64(early) / float64(trials*k)
	want := float64(k) / float64(k+batch) // 0.1
	if math.Abs(got-want) > 0.02 {
		t.Errorf("early survival = %.4f, want ~%.4f", got, want)
	}
}

func TestAddNPartialFill(t *testing.T) {
	r, err := NewReservoir(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	r.AddN(5, 4)
	if len(r.Sample()) != 4 || r.Seen() != 4 {
		t.Fatalf("after AddN(5,4): len=%d seen=%d", len(r.Sample()), r.Seen())
	}
	r.AddN(6, 20)
	if len(r.Sample()) != 10 || r.Seen() != 24 {
		t.Fatalf("after AddN(6,20): len=%d seen=%d", len(r.Sample()), r.Seen())
	}
	r.AddN(7, 0)
	if r.Seen() != 24 {
		t.Errorf("AddN with count=0 changed seen to %d", r.Seen())
	}
}

func TestAddWeighted(t *testing.T) {
	r, err := NewReservoir(1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Weight 2.5 should add on average 2.5 copies.
	for i := 0; i < 10000; i++ {
		r.AddWeighted(1, 2.5)
	}
	got := float64(r.Seen()) / 10000
	if math.Abs(got-2.5) > 0.1 {
		t.Errorf("mean copies = %.3f, want ~2.5", got)
	}
	seen := r.Seen()
	r.AddWeighted(1, 0)
	r.AddWeighted(1, -3)
	r.AddWeighted(1, math.NaN())
	if r.Seen() != seen {
		t.Error("non-positive/NaN weights must be ignored")
	}
}

func TestReservoirMergeErrors(t *testing.T) {
	r, err := NewReservoir(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Merge(nil); err == nil {
		t.Error("merge nil: want error")
	}
	o, err := NewReservoir(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Merge(o); err == nil {
		t.Error("capacity mismatch: want error")
	}
}

func TestReservoirMergeBookkeeping(t *testing.T) {
	r, _ := NewReservoir(10, 1)
	o, _ := NewReservoir(10, 2)

	// Merging an empty shard is a no-op.
	for i := int64(0); i < 3; i++ {
		r.Add(i)
	}
	if err := r.Merge(o); err != nil {
		t.Fatal(err)
	}
	if r.Seen() != 3 || len(r.Sample()) != 3 {
		t.Fatalf("after empty merge: seen=%d len=%d", r.Seen(), len(r.Sample()))
	}

	// Merging into an empty reservoir adopts the shard's sample.
	for i := int64(10); i < 14; i++ {
		o.Add(i)
	}
	empty, _ := NewReservoir(10, 3)
	if err := empty.Merge(o); err != nil {
		t.Fatal(err)
	}
	if empty.Seen() != 4 || len(empty.Sample()) != 4 {
		t.Fatalf("merge into empty: seen=%d len=%d", empty.Seen(), len(empty.Sample()))
	}

	// Two under-full partitions merge into their exact union.
	if err := r.Merge(o); err != nil {
		t.Fatal(err)
	}
	if r.Seen() != 7 || len(r.Sample()) != 7 {
		t.Fatalf("under-full merge: seen=%d len=%d", r.Seen(), len(r.Sample()))
	}
	got := map[int64]bool{}
	for _, v := range r.Sample() {
		got[v] = true
	}
	for _, v := range []int64{0, 1, 2, 10, 11, 12, 13} {
		if !got[v] {
			t.Errorf("under-full merge lost value %d", v)
		}
	}
	// o is untouched.
	if o.Seen() != 4 || len(o.Sample()) != 4 {
		t.Errorf("merge mutated source: seen=%d len=%d", o.Seen(), len(o.Sample()))
	}

	// Over-full merge caps at capacity and sums seen.
	a, _ := NewReservoir(10, 4)
	b, _ := NewReservoir(10, 5)
	for i := int64(0); i < 100; i++ {
		a.Add(i)
		b.Add(100 + i)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Seen() != 200 || len(a.Sample()) != 10 {
		t.Fatalf("full merge: seen=%d len=%d", a.Seen(), len(a.Sample()))
	}
}

// TestReservoirMergeUnbiased: splitting a stream across two shard reservoirs
// and merging must leave every stream position with inclusion probability
// k/n, exactly as if one reservoir had sampled the whole stream. This is the
// distributional guarantee parallel Sweep relies on.
func TestReservoirMergeUnbiased(t *testing.T) {
	const (
		k      = 5
		n      = 50
		split  = 20 // shard A samples [0,split), shard B samples [split,n)
		trials = 20000
	)
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		a, err := NewReservoir(k, int64(3*trial+1))
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewReservoir(k, int64(3*trial+2))
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < split; i++ {
			a.Add(i)
		}
		for i := int64(split); i < n; i++ {
			b.Add(i)
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		if a.Seen() != n || len(a.Sample()) != k {
			t.Fatalf("merged: seen=%d len=%d", a.Seen(), len(a.Sample()))
		}
		for _, v := range a.Sample() {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.15*want {
			t.Errorf("position %d sampled %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestEstimateDistinct(t *testing.T) {
	if got := EstimateDistinct(nil, 100); got != 0 {
		t.Errorf("empty sample = %v", got)
	}
	// Full "sample" of the population: estimate must equal true distinct.
	full := []int64{1, 1, 2, 3, 3, 3, 4}
	got := EstimateDistinct(full, int64(len(full)))
	if math.Abs(got-4) > 1e-9 {
		t.Errorf("full sample estimate = %v, want 4", got)
	}
	// Never exceeds population size and never drops below observed distinct.
	got = EstimateDistinct([]int64{1, 2, 3}, 4)
	if got > 4 || got < 3 {
		t.Errorf("estimate = %v, want within [3,4]", got)
	}
}

func TestEstimateDistinctStatistical(t *testing.T) {
	// Population: 1000 distinct values each appearing 10 times. A 10% sample
	// should estimate distinct within a factor ~2 of 1000.
	rng := rand.New(rand.NewSource(8))
	var population []int64
	for v := int64(0); v < 1000; v++ {
		for c := 0; c < 10; c++ {
			population = append(population, v)
		}
	}
	rng.Shuffle(len(population), func(i, j int) { population[i], population[j] = population[j], population[i] })
	sampleVals := population[:1000]
	got := EstimateDistinct(sampleVals, int64(len(population)))
	if got < 500 || got > 2000 {
		t.Errorf("distinct estimate = %v, want within [500,2000] of 1000", got)
	}
}

// Property: GEE stays within [observed distinct, population].
func TestDistinctBoundsQuick(t *testing.T) {
	f := func(raw []uint8, extra uint16) bool {
		smp := make([]int64, len(raw))
		seen := map[int64]bool{}
		for i, v := range raw {
			smp[i] = int64(v % 32)
			seen[smp[i]] = true
		}
		total := int64(len(raw)) + int64(extra)
		got := EstimateDistinct(smp, total)
		if len(smp) == 0 {
			return got == 0
		}
		return got >= float64(len(seen))-1e-9 && got <= float64(total)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the reservoir never exceeds its capacity, Seen counts correctly,
// and with fewer offers than capacity the sample is exactly the stream.
func TestReservoirQuick(t *testing.T) {
	f := func(vals []int64, kSeed uint8) bool {
		k := int(kSeed%50) + 1
		r, err := NewReservoir(k, 99)
		if err != nil {
			return false
		}
		for _, v := range vals {
			r.Add(v)
		}
		if r.Seen() != int64(len(vals)) {
			return false
		}
		if len(vals) <= k {
			s := r.Sample()
			if len(s) != len(vals) {
				return false
			}
			for i := range vals {
				if s[i] != vals[i] {
					return false
				}
			}
			return true
		}
		return len(r.Sample()) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: AddN(v, c) leaves the same Seen as c individual Adds and keeps
// every sampled element a member of the offered multiset.
func TestAddNQuick(t *testing.T) {
	f := func(counts []uint8, kSeed uint8) bool {
		k := int(kSeed%20) + 1
		r, err := NewReservoir(k, 7)
		if err != nil {
			return false
		}
		offered := map[int64]bool{}
		var total int64
		for i, c := range counts {
			v := int64(i)
			n := int64(c % 50)
			r.AddN(v, n)
			if n > 0 {
				offered[v] = true
			}
			total += n
		}
		if r.Seen() != total {
			return false
		}
		for _, v := range r.Sample() {
			if !offered[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
