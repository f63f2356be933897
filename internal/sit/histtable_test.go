package sit

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/histogram"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/query"
	"github.com/sitstats/sits/internal/radix"
)

// fuzzBuckets lays out sorted, disjoint buckets from lo, one per 4 bytes of
// spec: a gap before the bucket, its width, its frequency and its distinct
// count (0 and counts above the width included). It stops before a bucket
// that would pass math.MaxInt64.
func fuzzBuckets(lo int64, spec []byte) []histogram.Bucket {
	var out []histogram.Bucket
	next := lo
	for ; len(spec) >= 4; spec = spec[4:] {
		gap, width := int64(spec[0]%8), int64(1+spec[1]%16)
		if next > math.MaxInt64-gap-width {
			break
		}
		b := histogram.Bucket{Lo: next + gap, Hi: next + gap + width - 1,
			Freq: float64(spec[2]), Distinct: float64(int64(spec[3]) % (width + 2))}
		out = append(out, b)
		next = b.Hi + 1
	}
	return out
}

// FuzzHistOracleTable checks the value table of a histogram m-Oracle against
// the scalar histogram.ContainmentMultiplicity, bit for bit, on random
// bucket lists: negative values, probes outside the child's span, an empty
// child, spans on either side of the radix.Dense guard (slots = span + slack),
// spans filled in more than one block and, with wide set, a {MinInt64, MaxInt64} span that must fall back to the
// argsort path, which is checked against the same reference.
func FuzzHistOracleTable(f *testing.F) {
	spec := []byte{0, 3, 40, 2, 5, 9, 17, 9, 1, 0, 200, 0, 7, 15, 3, 20}
	f.Add(int64(-50), spec, []byte{2, 15, 9, 4, 0, 15, 30, 16}, int8(1), false, int64(1))
	f.Add(int64(-50), spec, spec, int8(0), false, int64(2))
	f.Add(int64(7), []byte{}, spec, int8(5), false, int64(3))
	f.Add(int64(-9), spec, spec, int8(100), true, int64(4))
	f.Add(int64(math.MaxInt64-40), spec, spec, int8(1), false, int64(5))
	// A child span past one tableFill block.
	long := bytes.Repeat(spec, 200)
	f.Add(int64(-3000), long, long, int8(2), false, int64(6))
	f.Fuzz(func(t *testing.T, lo int64, childSpec, parentSpec []byte, slack int8, wide bool, seed int64) {
		child := &histogram.Histogram{Buckets: fuzzBuckets(lo, childSpec)}
		parent := &histogram.Histogram{Buckets: fuzzBuckets(lo-5, parentSpec)}
		cb := child.Buckets
		if wide && len(cb) > 0 {
			cb[0].Lo, cb[len(cb)-1].Hi = math.MinInt64, math.MaxInt64
		}
		slots, dense := 0, true
		var span uint64
		if len(cb) > 0 {
			span = uint64(cb[len(cb)-1].Hi) - uint64(cb[0].Lo)
			if span > 1<<20 {
				slots = math.MaxInt
			} else {
				slots = max(0, int(span)+int(slack))
			}
			dense = radix.Dense(cb[0].Lo, cb[len(cb)-1].Hi, slots)
		}
		o := histOracle{child: child, parent: parent}
		grant := mem.NewGovernor(0).Grant("table")
		tab := o.table(slots, grant)
		if (tab != nil) != dense {
			t.Fatalf("span %d slots %d: table built %v, radix.Dense says %v", span, slots, tab != nil, dense)
		}
		if wide && len(cb) > 0 && tab != nil {
			t.Fatal("a {MinInt64, MaxInt64} span was tabulated")
		}
		var probe oracle = o
		if tab != nil {
			probe = tab
			if used := grant.Used(); used != 8*int64(len(tab.tab)) {
				t.Fatalf("grant holds %d bytes for a %d-entry table", used, len(tab.tab))
			}
		}
		rng := rand.New(rand.NewSource(seed))
		base, reach := lo, int64(min(span, 1<<16))
		vals := []int64{math.MinInt64, math.MaxInt64, lo - 1, lo, base + reach, base + reach + 1}
		for range 64 {
			vals = append(vals, base+rng.Int63n(reach+8)-4)
		}
		out := make([]float64, len(vals))
		var scratch probeScratch
		probe.multiplicityBatch(vals, out, &scratch)
		for i, v := range vals {
			if want := histogram.ContainmentMultiplicity(child, parent, v); math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("table %v: m(%d) = %v, scalar = %v", tab != nil, v, out[i], want)
			}
		}
	})
}

// BenchmarkHistOracle answers one scan chunk of probes over a bench-sized
// join domain with the value table and with the argsort + sorted walk +
// scatter it replaces, in the same binary.
func BenchmarkHistOracle(b *testing.B) {
	const domain = 60_000
	rng := rand.New(rand.NewSource(3))
	hist := func(n int) *histogram.Histogram {
		h, err := histogram.FromValues(randVals(rng, n, 0, domain), 200, histogram.MaxDiffArea)
		if err != nil {
			b.Fatal(err)
		}
		return h
	}
	o := histOracle{child: hist(300_000), parent: hist(600_000)}
	probes := randVals(rng, scanChunkRows, -100, domain+200)
	out := make([]float64, len(probes))
	for _, c := range []struct {
		name string
		o    oracle
	}{{"table", o.table(600_000, nil)}, {"sorted-ref", o}} {
		b.Run(c.name, func(b *testing.B) {
			var scratch probeScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.o.multiplicityBatch(probes, out, &scratch)
			}
		})
	}
}

// TestHistTableUnderBudget: a child histogram whose span is close to the
// scanned table's rows is tabulated only when the budget admits the table.
// A serial scan is used, so its peak holds no shard bytes: the unlimited
// scan tabulates (its peak holds the table), a budget of a quarter of the
// table keeps the argsort path (its peak stays below the table), and the
// two SITs are bit-identical.
func TestHistTableUnderBudget(t *testing.T) {
	const rows = 16 * scanChunkRows
	rng := rand.New(rand.NewSource(5))
	r := data.MustNewTable("R", "x")
	for i := 0; i < 2000; i++ {
		// The first and last rows pin the child's span to [0, rows-1].
		v := rng.Int63n(rows)
		switch i {
		case 0:
			v = 0
		case 1:
			v = rows - 1
		}
		if err := r.AppendRow(v); err != nil {
			t.Fatal(err)
		}
	}
	s := data.MustNewTable("S", "y", "a")
	for i := 0; i < rows; i++ {
		if err := s.AppendRow(rng.Int63n(rows), rng.Int63n(3000)); err != nil {
			t.Fatal(err)
		}
	}
	cat := data.NewCatalog()
	cat.MustAdd(r)
	cat.MustAdd(s)
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	spec, err := query.NewSITSpec("S", "a", e)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(cat, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const table = 8 * rows
	ref, _, refPeak := scanOn(t, b, spec, 1, 0)
	if refPeak < table {
		t.Fatalf("unlimited peak %d is below the %d-byte table: the span was not tabulated", refPeak, table)
	}
	got, _, peak := scanOn(t, b, spec, 1, table/4)
	if peak >= table {
		t.Fatalf("peak %d under a budget of %d holds the %d-byte table", peak, table/4, table)
	}
	if !sameSIT(ref, got) {
		t.Fatal("the argsort path's SIT differs from the table's")
	}
}
