// Package sample implements the sampling substrate of Section 3.1 step 4:
// one-pass reservoir sampling over the streamed (value, multiplicity) pairs
// Sweep produces — Vitter's classic Algorithm R over replicated values (the
// paper's formulation, "we append n copies of a_i"), with fractional
// multiplicities stochastically rounded.
//
// It also provides the GEE distinct-value estimator used when deriving
// distinct counts from samples (the "sampling assumption" of Section 2.1).
package sample

import (
	"fmt"
	"math"
	"math/rand"
)

// Reservoir is a uniform fixed-size sample over a stream of int64 values,
// maintained with Vitter's Algorithm R.
type Reservoir struct {
	k     int
	seen  int64
	items []int64
	rng   *rand.Rand
}

// NewReservoir creates a reservoir holding at most k items, driven by the
// given seed.
func NewReservoir(k int, seed int64) (*Reservoir, error) {
	if k <= 0 {
		return nil, fmt.Errorf("sample: reservoir size %d must be positive", k)
	}
	return &Reservoir{k: k, rng: rand.New(rand.NewSource(seed))}, nil
}

// Add offers one stream element to the reservoir.
func (r *Reservoir) Add(v int64) {
	r.seen++
	if len(r.items) < r.k {
		r.items = append(r.items, v)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(r.k) {
		r.items[j] = v
	}
}

// AddN offers count identical stream elements. It is equivalent to calling
// Add(v) count times and is how Sweep streams the "n copies of a_i" of
// Section 3.1 step 3 without materializing them.
func (r *Reservoir) AddN(v int64, count int64) {
	for ; count > 0 && len(r.items) < r.k; count-- {
		r.seen++
		r.items = append(r.items, v)
	}
	if count <= 0 {
		return
	}
	// Reservoir is full. Out of the next count arrivals, arrival i (1-based
	// after seen) replaces a random slot with probability k/(seen+i). Draw
	// the number of replacements and apply them to uniform random slots; the
	// replaced values are all v, so only the count of replacements matters.
	replacements := 0
	for i := int64(1); i <= count; i++ {
		if r.rng.Int63n(r.seen+i) < int64(r.k) {
			replacements++
		}
	}
	r.seen += count
	for ; replacements > 0; replacements-- {
		r.items[r.rng.Intn(r.k)] = v
	}
}

// AddWeighted offers a fractional multiplicity using stochastic rounding:
// floor(w) copies plus one more with probability frac(w). This is the default
// way Sweep feeds its estimated multiplicities into the reservoir.
func (r *Reservoir) AddWeighted(v int64, w float64) {
	if w <= 0 || math.IsNaN(w) {
		return
	}
	n := int64(w)
	if r.rng.Float64() < w-float64(n) {
		n++
	}
	r.AddN(v, n)
}

// Merge folds another reservoir into r. The two reservoirs must have equal
// capacity and must have sampled disjoint partitions of one logical stream;
// the result is then distributed as a uniform k-sample of the concatenated
// stream (the standard distributed-reservoir merge: each output slot draws
// from r's or o's sample with probability proportional to the unconsumed
// portion of that partition). All randomness comes from r's generator, so the
// merge is deterministic given r's seed and the two samples. o is left
// unchanged.
func (r *Reservoir) Merge(o *Reservoir) error {
	if o == nil {
		return fmt.Errorf("sample: cannot merge nil reservoir")
	}
	if o.k != r.k {
		return fmt.Errorf("sample: cannot merge reservoirs of capacity %d and %d", r.k, o.k)
	}
	if o.seen == 0 {
		return nil
	}
	if r.seen == 0 {
		r.items = append(r.items[:0], o.items...)
		r.seen = o.seen
		return nil
	}
	a := append([]int64(nil), r.items...)
	b := append([]int64(nil), o.items...)
	remainA, remainB := r.seen, o.seen
	merged := make([]int64, 0, r.k)
	take := func(s []int64) (int64, []int64) {
		i := r.rng.Intn(len(s))
		v := s[i]
		s[i] = s[len(s)-1]
		return v, s[:len(s)-1]
	}
	for len(merged) < r.k && (len(a) > 0 || len(b) > 0) {
		var v int64
		// remainA/remainB hit zero exactly when the corresponding sample is
		// exhausted (a sample holds min(seen, k) items and at most k are ever
		// drawn), so the chosen side always has an item left.
		if r.rng.Int63n(remainA+remainB) < remainA {
			v, a = take(a)
			remainA--
		} else {
			v, b = take(b)
			remainB--
		}
		merged = append(merged, v)
	}
	r.items = merged
	r.seen += o.seen
	return nil
}

// Sample returns the current sample. The returned slice is the reservoir's
// backing storage and must not be modified.
func (r *Reservoir) Sample() []int64 { return r.items }

// Seen returns the number of stream elements offered so far.
func (r *Reservoir) Seen() int64 { return r.seen }

// Cap returns the reservoir capacity k.
func (r *Reservoir) Cap() int { return r.k }

// EstimateDistinct applies the GEE (Guaranteed-Error Estimator) of Charikar
// et al. to estimate the number of distinct values in a population of size
// total from a uniform sample: sqrt(total/|sample|)·f1 + sum_{j>=2} fj, where
// fj counts sample values occurring exactly j times. This is the standard
// answer to the sampling assumption's weak spot — distinct counts are hard to
// sample (Section 2.1, [3]).
func EstimateDistinct(sampleVals []int64, total int64) float64 {
	n := int64(len(sampleVals))
	if n == 0 {
		return 0
	}
	if total < n {
		total = n
	}
	counts := make(map[int64]int, len(sampleVals))
	for _, v := range sampleVals {
		counts[v]++
	}
	singletons := 0
	higher := 0
	for _, c := range counts {
		if c == 1 {
			singletons++
		} else {
			higher++
		}
	}
	est := math.Sqrt(float64(total)/float64(n))*float64(singletons) + float64(higher)
	if est > float64(total) {
		est = float64(total)
	}
	if est < float64(len(counts)) {
		est = float64(len(counts))
	}
	return est
}
