package histogram

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/sitstats/sits/internal/btree"
	"github.com/sitstats/sits/internal/radix"
)

// tallyRef is the pre-radix Tally, kept as the bit-identity oracle: a map
// pre-sized to the input, then a comparison sort of the pairs.
func tallyRef(vals []int64) []ValueFreq {
	counts := make(map[int64]float64, len(vals))
	for _, v := range vals {
		counts[v]++
	}
	pairs := make([]ValueFreq, 0, len(counts))
	for v, f := range counts {
		pairs = append(pairs, ValueFreq{Value: v, Freq: f})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Value < pairs[j].Value })
	return pairs
}

// maxDiffBreaksRef is the pre-heap maxDiffBreaks, kept as the oracle: it
// sorts all n-1 adjacent differences by (d desc, pos asc) and takes the first
// nb-1.
func maxDiffBreaksRef(pairs []ValueFreq, nb int, useArea bool) []int {
	n := len(pairs)
	if n <= nb {
		breaks := make([]int, n)
		for i := range breaks {
			breaks[i] = i
		}
		return breaks
	}
	metric := make([]float64, n)
	for i := 0; i < n; i++ {
		m := pairs[i].Freq
		if useArea {
			spread := 1.0
			if i+1 < n {
				spread = float64(pairs[i+1].Value - pairs[i].Value)
			}
			m *= spread
		}
		metric[i] = m
	}
	type diff struct {
		pos int
		d   float64
	}
	diffs := make([]diff, 0, n-1)
	for i := 0; i+1 < n; i++ {
		diffs = append(diffs, diff{pos: i + 1, d: math.Abs(metric[i+1] - metric[i])})
	}
	sort.Slice(diffs, func(i, j int) bool {
		if diffs[i].d != diffs[j].d {
			return diffs[i].d > diffs[j].d
		}
		return diffs[i].pos < diffs[j].pos
	})
	breaks := make([]int, 0, nb-1)
	for i := 0; i < nb-1 && i < len(diffs); i++ {
		breaks = append(breaks, diffs[i].pos)
	}
	return breaks
}

// TestTallyMatchesMapReference checks Tally, and btree.Build's tree, against
// the map reference on both sides of the counting kernel's guard: spans up
// to 2n count densely, wider ones (and the {MinInt64, MaxInt64} span, whose
// size wraps to 0 in uint64) sort.
func TestTallyMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	wide := make([]int64, 20000)
	for i := range wide {
		wide[i] = int64(rng.Uint64())
	}
	skewed := make([]int64, 20000)
	for i := range skewed {
		skewed[i] = int64(rng.ExpFloat64()*40) - 30
	}
	spread := func(n int, span int64) []int64 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(span) - span/2
		}
		vals[0], vals[1] = -span/2, span-1-span/2 // pin the span
		return vals
	}
	cases := map[string][]int64{
		"empty":     {},
		"single":    {9},
		"extremes":  {math.MaxInt64, math.MinInt64, -1, 0, math.MinInt64, 1, math.MaxInt64, math.MaxInt64},
		"overflow":  {math.MinInt64, math.MaxInt64, 0, -1},
		"all-equal": make([]int64, 5000),
		"wide":      wide,
		"skewed":    skewed,
		"span=2n":   spread(4000, 8000),
		"span=2n+1": spread(4000, 8001),
		"sparse":    spread(4000, 1<<41),
	}
	regimes := map[bool]int{}
	for name, vals := range cases {
		if len(vals) > 0 {
			lo, hi := slices.Min(vals), slices.Max(vals)
			regimes[radix.Dense(lo, hi, 2*len(vals))]++
		}
		got, want := Tally(vals), tallyRef(vals)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("%s: Tally has %d pairs, map reference %d, or they differ", name, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Errorf("%s: Tally result over-allocated: len %d cap %d", name, len(got), cap(got))
		}
		asc := slices.Clone(vals)
		slices.Sort(asc)
		if sorted := TallySorted(asc); len(sorted) != len(want) || cap(sorted) != len(want) || (len(want) > 0 && !reflect.DeepEqual(sorted, want)) {
			t.Errorf("%s: TallySorted has %d pairs (cap %d), map reference %d, or they differ", name, len(sorted), cap(sorted), len(want))
		}
		tree := btree.Build(vals)
		if err := tree.Validate(); err != nil {
			t.Fatalf("%s: btree.Build: %v", name, err)
		}
		if tree.Len() != int64(len(vals)) {
			t.Errorf("%s: btree.Build holds %d keys, want %d", name, tree.Len(), len(vals))
		}
		for _, p := range want {
			if c := tree.Count(p.Value); float64(c) != p.Freq {
				t.Errorf("%s: btree.Build counts %d for %d, map reference %v", name, c, p.Value, p.Freq)
				break
			}
		}
	}
	if regimes[true] == 0 || regimes[false] == 0 {
		t.Fatalf("cases cover dense %d and sorted %d times: need both", regimes[true], regimes[false])
	}
}

// sortedInts returns a sorted copy: the break set is what fromBreaks consumes
// (it sorts its input), so sets are compared.
func sortedInts(in []int) []int {
	out := append([]int{}, in...)
	sort.Ints(out)
	return out
}

func TestMaxDiffBreaksMatchesFullSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ramp := func(n int, freq func(i int) float64, step func(i int) int64) []ValueFreq {
		out := make([]ValueFreq, n)
		v := int64(-500)
		for i := range out {
			v += step(i)
			out[i] = ValueFreq{Value: v, Freq: freq(i)}
		}
		return out
	}
	cases := map[string][]ValueFreq{
		// Every adjacent difference is 0 (frequency) or the same constant
		// (area): the position tie-break alone picks the breaks.
		"all-diffs-equal": ramp(400, func(int) float64 { return 3 }, func(int) int64 { return 2 }),
		// Differences take three distinct values, hundreds of ties each.
		"tie-heavy": ramp(900, func(i int) float64 { return float64(1 + i%3) }, func(int) int64 { return 1 }),
		"random": ramp(3000, func(int) float64 { return float64(1 + rng.Intn(50)) },
			func(int) int64 { return 1 + rng.Int63n(9) }),
		"fractional": ramp(2000, func(int) float64 { return rng.Float64() * 7 }, func(int) int64 { return 1 + rng.Int63n(3) }),
		"extremes": {{Value: math.MinInt64, Freq: 2}, {Value: -1, Freq: 9}, {Value: 0, Freq: 9},
			{Value: 5, Freq: 1}, {Value: math.MaxInt64, Freq: 4}},
	}
	for name, pairs := range cases {
		n := len(pairs)
		for _, nb := range []int{1, 2, 3, 7, 100, n - 1, n, n + 5} {
			if nb < 1 {
				continue
			}
			for _, area := range []bool{true, false} {
				got := sortedInts(maxDiffBreaks(pairs, nb, area))
				want := sortedInts(maxDiffBreaksRef(pairs, nb, area))
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Errorf("%s nb=%d area=%v: heap selection chose %v, full sort %v", name, nb, area, got, want)
				}
			}
		}
	}
}

var (
	sinkPairs  []ValueFreq
	sinkBreaks []int
)

func benchColumn(rows int, domain int64) []int64 {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = rng.Int63n(domain)
	}
	return vals
}

// BenchmarkTally compares the radix Tally against the preserved map
// reference on bench-sized columns, in ns per input row. Both domain cases
// span at most 2·rows values, so Tally counts them densely; sparse=2^40
// spreads the rows over [0, 2^40) and pins the sorted regime's cost.
func BenchmarkTally(b *testing.B) {
	const rows = 600000
	for _, dom := range []struct {
		name   string
		domain int64
	}{{"domain=60000", 60000}, {"domain=300000", 300000}, {"sparse=2^40", 1 << 40}} {
		vals := benchColumn(rows, dom.domain)
		for _, impl := range []struct {
			name string
			f    func([]int64) []ValueFreq
		}{{"radix", Tally}, {"map-ref", tallyRef}} {
			b.Run(dom.name+"/"+impl.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sinkPairs = impl.f(vals)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			})
		}
	}
}

// BenchmarkMaxDiffBreaks compares the bounded-heap selection against the
// preserved full sort at the default budget of 100 buckets, in ns per
// distinct value.
func BenchmarkMaxDiffBreaks(b *testing.B) {
	for _, domain := range []int64{60000, 300000} {
		pairs := Tally(benchColumn(600000, domain))
		for _, impl := range []struct {
			name string
			f    func([]ValueFreq, int, bool) []int
		}{{"heap", maxDiffBreaks}, {"sort-ref", maxDiffBreaksRef}} {
			b.Run(fmt.Sprintf("domain=%d/%s", domain, impl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sinkBreaks = impl.f(pairs, 100, true)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pairs)), "ns/value")
			})
		}
	}
}
