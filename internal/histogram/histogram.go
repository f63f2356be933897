// Package histogram implements the statistics substrate the paper builds on:
// single-attribute bucket histograms with frequency and distinct-value counts
// per bucket, the MaxDiff construction family the paper uses ("a variant of
// MaxDiff histograms [14] which are natively supported in Microsoft SQL
// Server 2000", Section 5.1), equi-depth and equi-width constructions for
// ablation, range-cardinality estimation under the uniform-spread assumption,
// containment-assumption join estimation, and independence-assumption
// propagation (scaling).
package histogram

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/sitstats/sits/internal/radix"
)

// Bucket is one histogram bucket over the inclusive integer value range
// [Lo, Hi]. Freq is the (possibly fractional, when derived from estimation)
// number of tuples in the range, Distinct the number of distinct values.
type Bucket struct {
	Lo, Hi   int64
	Freq     float64
	Distinct float64
}

// Width returns the number of integer values covered by the bucket.
func (b Bucket) Width() float64 { return float64(b.Hi-b.Lo) + 1 }

// Contains reports whether v lies in the bucket's range.
func (b Bucket) Contains(v int64) bool { return v >= b.Lo && v <= b.Hi }

// Histogram is an ordered sequence of non-overlapping buckets.
type Histogram struct {
	Buckets []Bucket
}

// ValueFreq is a (value, frequency) pair; construction inputs are sequences
// of these sorted by value. Fractional frequencies arise when building
// histograms over estimated intermediate results (e.g. SweepFull streams).
type ValueFreq struct {
	Value int64
	Freq  float64
}

// Method selects a histogram construction algorithm.
type Method int

const (
	// MaxDiffArea is MaxDiff(V,A) of Poosala et al.: bucket boundaries are
	// placed at the largest differences in "area" (frequency times spread)
	// between adjacent attribute values. This is the default and the variant
	// the paper's experiments use.
	MaxDiffArea Method = iota
	// MaxDiffFreq is MaxDiff(V,F): boundaries at the largest differences in
	// frequency between adjacent values.
	MaxDiffFreq
	// EquiDepth places boundaries so each bucket holds roughly equal total
	// frequency.
	EquiDepth
	// EquiWidth places boundaries so each bucket covers an equal value range.
	EquiWidth
	// VOptimal minimizes total within-bucket frequency variance via dynamic
	// programming (O(m^2 nb) over m distinct values; see FromPairsVOptimal).
	VOptimal
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case MaxDiffArea:
		return "maxdiff-area"
	case MaxDiffFreq:
		return "maxdiff-freq"
	case EquiDepth:
		return "equidepth"
	case EquiWidth:
		return "equiwidth"
	case VOptimal:
		return "v-optimal"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// FromValues builds a histogram with at most nb buckets over raw values.
// Its (value, frequency) pairs come from Tally, so a column whose span is at
// most twice its length is counted without a sort.
func FromValues(vals []int64, nb int, m Method) (*Histogram, error) {
	return FromPairs(Tally(vals), nb, m)
}

// Tally aggregates raw values into sorted (value, frequency) pairs with the
// radix counting kernel: a dense count over [min, max] when the span is at
// most 2·len(vals), else a radix sort of a copy and a run-length count. The
// frequencies are integer counts, so both give the same pairs.
func Tally(vals []int64) []ValueFreq {
	r := radix.Count(vals)
	return pairsOf(&r)
}

// TallySorted is Tally over values already in ascending order: one pass
// counts the runs and a second writes each run's pair.
func TallySorted(sorted []int64) []ValueFreq {
	d := 0
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			d++
		}
	}
	pairs := make([]ValueFreq, 0, d)
	for i := 0; i < len(sorted); {
		v, j := sorted[i], i+1
		for j < len(sorted) && sorted[j] == v {
			j++
		}
		pairs = append(pairs, ValueFreq{Value: v, Freq: float64(j - i)})
		i = j
	}
	return pairs
}

// pairsOf reads a tally's runs into pairs of exact length.
func pairsOf(r *radix.Runs) []ValueFreq {
	pairs := make([]ValueFreq, 0, r.Len())
	for keys, counts := r.Next(); len(keys) > 0; keys, counts = r.Next() {
		counts = counts[:len(keys)]
		for i, v := range keys {
			pairs = append(pairs, ValueFreq{Value: v, Freq: float64(counts[i])})
		}
	}
	return pairs
}

// TallyMap converts a value->frequency map into sorted pairs, dropping
// non-positive frequencies.
func TallyMap(counts map[int64]float64) []ValueFreq {
	pairs := make([]ValueFreq, 0, len(counts))
	for v, f := range counts {
		if f > 0 {
			pairs = append(pairs, ValueFreq{Value: v, Freq: f})
		}
	}
	slices.SortFunc(pairs, func(a, b ValueFreq) int { return cmp.Compare(a.Value, b.Value) })
	return pairs
}

// FromPairs builds a histogram with at most nb buckets from sorted
// (value, frequency) pairs.
func FromPairs(pairs []ValueFreq, nb int, m Method) (*Histogram, error) {
	if nb <= 0 {
		return nil, fmt.Errorf("histogram: bucket count %d must be positive", nb)
	}
	for i := range pairs {
		if pairs[i].Freq < 0 || math.IsNaN(pairs[i].Freq) || math.IsInf(pairs[i].Freq, 0) {
			return nil, fmt.Errorf("histogram: invalid frequency %v for value %d", pairs[i].Freq, pairs[i].Value)
		}
		if i > 0 && pairs[i].Value <= pairs[i-1].Value {
			return nil, fmt.Errorf("histogram: pairs not strictly sorted at index %d", i)
		}
	}
	if len(pairs) == 0 {
		return &Histogram{}, nil
	}
	var breaks []int
	switch m {
	case MaxDiffArea, MaxDiffFreq:
		breaks = maxDiffBreaks(pairs, nb, m == MaxDiffArea)
	case EquiDepth:
		breaks = equiDepthBreaks(pairs, nb)
	case EquiWidth:
		breaks = equiWidthBreaks(pairs, nb)
	case VOptimal:
		return FromPairsVOptimal(pairs, nb)
	default:
		return nil, fmt.Errorf("histogram: unknown method %v", m)
	}
	return fromBreaks(pairs, breaks), nil
}

// fromBreaks builds buckets from break positions: a break at i starts a new
// bucket at pairs[i]. Position 0 is always an implicit break.
func fromBreaks(pairs []ValueFreq, breaks []int) *Histogram {
	sort.Ints(breaks)
	h := &Histogram{}
	start := 0
	flush := func(end int) { // pairs[start:end] become one bucket
		if end <= start {
			return
		}
		b := Bucket{Lo: pairs[start].Value, Hi: pairs[end-1].Value}
		for _, p := range pairs[start:end] {
			b.Freq += p.Freq
			b.Distinct++
		}
		h.Buckets = append(h.Buckets, b)
		start = end
	}
	for _, br := range breaks {
		if br > start && br < len(pairs) {
			flush(br)
		}
	}
	flush(len(pairs))
	return h
}

// breakDiff is a candidate boundary: a break before pairs[pos], scored by the
// difference d between the metrics of the two adjacent values.
type breakDiff struct {
	pos int
	d   float64
}

// before is MaxDiff's total order over candidates: larger difference first,
// earlier position on ties.
func (a breakDiff) before(b breakDiff) bool {
	if a.d != b.d {
		return a.d > b.d
	}
	return a.pos < b.pos
}

// maxDiffMetric is the quantity whose adjacent differences MaxDiff ranks: the
// frequency of pairs[i], times its spread v_{i+1} - v_i for the area variant
// (the last value's spread is taken as 1).
func maxDiffMetric(pairs []ValueFreq, i int, useArea bool) float64 {
	m := pairs[i].Freq
	if useArea {
		spread := 1.0
		if i+1 < len(pairs) {
			spread = float64(pairs[i+1].Value - pairs[i].Value)
		}
		m *= spread
	}
	return m
}

// maxDiffBreaks places nb-1 boundaries at the largest adjacent differences in
// area (or frequency). The nb-1 winners are selected with a bounded heap
// whose root is the worst candidate kept so far; the order is total, so the
// chosen set is the one a full sort would put first.
func maxDiffBreaks(pairs []ValueFreq, nb int, useArea bool) []int {
	n := len(pairs)
	if n <= nb {
		// One bucket per value: exact histogram.
		breaks := make([]int, n)
		for i := range breaks {
			breaks[i] = i
		}
		return breaks
	}
	k := nb - 1
	if k == 0 {
		return nil
	}
	// heap[:k] is a binary heap under "ranks before" once full, so heap[0] is
	// the worst candidate kept.
	heap := make([]breakDiff, 0, k)
	siftDown := func(i int) {
		for {
			worst := i
			if l := 2*i + 1; l < k && heap[worst].before(heap[l]) {
				worst = l
			}
			if r := 2*i + 2; r < k && heap[worst].before(heap[r]) {
				worst = r
			}
			if worst == i {
				return
			}
			heap[i], heap[worst] = heap[worst], heap[i]
			i = worst
		}
	}
	prev := maxDiffMetric(pairs, 0, useArea)
	for pos := 1; pos < n; pos++ {
		cur := maxDiffMetric(pairs, pos, useArea)
		c := breakDiff{pos: pos, d: math.Abs(cur - prev)}
		prev = cur
		switch {
		case len(heap) < k:
			if heap = append(heap, c); len(heap) == k {
				for i := k/2 - 1; i >= 0; i-- {
					siftDown(i)
				}
			}
		case c.before(heap[0]):
			heap[0] = c
			siftDown(0)
		}
	}
	breaks := make([]int, len(heap))
	for i, c := range heap {
		breaks[i] = c.pos
	}
	return breaks
}

// equiDepthBreaks places boundaries so each bucket carries roughly total/nb
// frequency.
func equiDepthBreaks(pairs []ValueFreq, nb int) []int {
	total := 0.0
	for _, p := range pairs {
		total += p.Freq
	}
	target := total / float64(nb)
	if target <= 0 {
		return nil
	}
	var breaks []int
	acc := 0.0
	for i, p := range pairs {
		acc += p.Freq
		if acc >= target && i+1 < len(pairs) && len(breaks) < nb-1 {
			breaks = append(breaks, i+1)
			acc = 0
		}
	}
	return breaks
}

// equiWidthBreaks places boundaries so each bucket covers an equal slice of
// the overall value range.
func equiWidthBreaks(pairs []ValueFreq, nb int) []int {
	lo := pairs[0].Value
	hi := pairs[len(pairs)-1].Value
	width := float64(hi-lo+1) / float64(nb)
	if width <= 0 {
		return nil
	}
	var breaks []int
	next := 1
	for i, p := range pairs {
		for next < nb && float64(p.Value-lo) >= float64(next)*width {
			if i > 0 {
				breaks = append(breaks, i)
			}
			next++
		}
	}
	return breaks
}

// NumBuckets returns the number of buckets.
func (h *Histogram) NumBuckets() int { return len(h.Buckets) }

// TotalFreq returns the sum of bucket frequencies (the estimated relation
// cardinality the histogram describes).
func (h *Histogram) TotalFreq() float64 {
	t := 0.0
	for _, b := range h.Buckets {
		t += b.Freq
	}
	return t
}

// Min returns the smallest covered value; ok is false for empty histograms.
func (h *Histogram) Min() (int64, bool) {
	if len(h.Buckets) == 0 {
		return 0, false
	}
	return h.Buckets[0].Lo, true
}

// Max returns the largest covered value; ok is false for empty histograms.
func (h *Histogram) Max() (int64, bool) {
	if len(h.Buckets) == 0 {
		return 0, false
	}
	return h.Buckets[len(h.Buckets)-1].Hi, true
}

// Locate returns the bucket containing v, or ok=false when v falls outside
// every bucket (before the first, after the last, or in a gap).
func (h *Histogram) Locate(v int64) (Bucket, bool) {
	i := sort.Search(len(h.Buckets), func(i int) bool { return h.Buckets[i].Hi >= v })
	if i >= len(h.Buckets) || !h.Buckets[i].Contains(v) {
		return Bucket{}, false
	}
	return h.Buckets[i], true
}

// EstimateEq estimates the number of tuples with value exactly v, using the
// uniform-spread assumption inside the containing bucket.
func (h *Histogram) EstimateEq(v int64) float64 {
	b, ok := h.Locate(v)
	if !ok || b.Distinct == 0 {
		return 0
	}
	return b.Freq / b.Distinct
}

// EstimateRange estimates the number of tuples with lo <= value <= hi under
// the uniform-spread assumption.
func (h *Histogram) EstimateRange(lo, hi int64) float64 {
	if hi < lo {
		return 0
	}
	est := 0.0
	for _, b := range h.Buckets {
		if b.Hi < lo || b.Lo > hi {
			continue
		}
		oLo, oHi := b.Lo, b.Hi
		if lo > oLo {
			oLo = lo
		}
		if hi < oHi {
			oHi = hi
		}
		frac := (float64(oHi-oLo) + 1) / b.Width()
		est += b.Freq * frac
	}
	return est
}

// ScaleTo returns a copy whose total frequency equals total, implementing the
// independence-assumption propagation step of Section 2.1: "bucket
// frequencies are uniformly scaled down so that the sum of all frequencies in
// the propagated histogram equals the estimated cardinality of the join".
// Distinct counts are clamped so they never exceed the scaled frequency.
func (h *Histogram) ScaleTo(total float64) *Histogram {
	cur := h.TotalFreq()
	if cur == 0 {
		return &Histogram{}
	}
	factor := total / cur
	out := &Histogram{Buckets: make([]Bucket, len(h.Buckets))}
	copy(out.Buckets, h.Buckets)
	for i := range out.Buckets {
		out.Buckets[i].Freq *= factor
		if out.Buckets[i].Distinct > out.Buckets[i].Freq {
			out.Buckets[i].Distinct = out.Buckets[i].Freq
		}
	}
	return out
}

// Validate checks structural invariants: buckets ordered, non-overlapping,
// with non-negative frequencies and distinct counts no larger than width or
// frequency (where frequency is at least 1).
func (h *Histogram) Validate() error {
	for i, b := range h.Buckets {
		if b.Hi < b.Lo {
			return fmt.Errorf("histogram: bucket %d has Hi < Lo (%d < %d)", i, b.Hi, b.Lo)
		}
		if b.Freq < 0 || math.IsNaN(b.Freq) || math.IsInf(b.Freq, 0) {
			return fmt.Errorf("histogram: bucket %d has invalid frequency %v", i, b.Freq)
		}
		if b.Distinct < 0 || b.Distinct > b.Width() {
			return fmt.Errorf("histogram: bucket %d distinct %v out of [0,%v]", i, b.Distinct, b.Width())
		}
		if i > 0 && h.Buckets[i-1].Hi >= b.Lo {
			return fmt.Errorf("histogram: buckets %d and %d overlap or are unordered", i-1, i)
		}
	}
	return nil
}

// String renders a compact textual form, useful in tools and tests.
func (h *Histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "histogram{%d buckets, freq=%.1f", len(h.Buckets), h.TotalFreq())
	for i, b := range h.Buckets {
		if i >= 8 {
			sb.WriteString(", ...")
			break
		}
		fmt.Fprintf(&sb, ", [%d,%d]:f=%.1f,d=%.0f", b.Lo, b.Hi, b.Freq, b.Distinct)
	}
	sb.WriteString("}")
	return sb.String()
}
