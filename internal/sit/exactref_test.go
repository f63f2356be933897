package sit

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/histogram"
)

// mapConsumer is the pre-radix exact consumer, kept as the bit-identity
// oracle for fullConsumer: every chunk aggregates into a fresh
// value -> weight map in row order, and the chunk maps are merged into the
// root map in chunk order. It runs serial scans only.
type mapConsumer struct {
	weights map[int64]float64
	mass    float64
}

func newMapConsumer() *mapConsumer { return &mapConsumer{weights: map[int64]float64{}} }

func (c *mapConsumer) addChunk(target []int64, m []float64, _ *sortedCol) {
	part := newMapConsumer()
	for r, mv := range m {
		if mv > 0 {
			part.weights[target[r]] += mv
			part.mass += mv
		}
	}
	for v, w := range part.weights {
		c.weights[v] += w
	}
	c.mass += part.mass
}

func (c *mapConsumer) sortsTarget() bool { return false }

// pairs is the reference's sorted output (map + comparison sort).
func (c *mapConsumer) pairs() []histogram.ValueFreq {
	out := make([]histogram.ValueFreq, 0, len(c.weights))
	for v, w := range c.weights {
		out = append(out, histogram.ValueFreq{Value: v, Freq: w})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

func (c *mapConsumer) result(nb int, method histogram.Method) (*histogram.Histogram, float64, error) {
	h, err := histogram.FromPairs(c.pairs(), nb, method)
	return h, c.mass, err
}

func (c *mapConsumer) fork(int, int) (consumer, error) {
	return nil, fmt.Errorf("map reference consumer scans serially")
}

func (c *mapConsumer) merge(consumer) error {
	return fmt.Errorf("map reference consumer scans serially")
}

// exactFixture is one table S(y, a) scanned with a fractional histogram
// m-Oracle on y, streaming a. form is the form the root's sums end in,
// "dense" or "sorted" ("" when nothing streams).
type exactFixture struct {
	name string
	y, a []int64
	form string
}

// fractionalOracle answers with bucket-average multiplicities, so nearly
// every streamed weight is a non-integer and summation order shows up in the
// low bits.
func fractionalOracle(t testing.TB, probeCol []int64) histOracle {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	child := make([]int64, 3000)
	for i := range child {
		child[i] = rng.Int63n(700) - 100
	}
	hc, err := histogram.FromValues(child, 13, histogram.MaxDiffArea)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := histogram.FromValues(probeCol, 7, histogram.MaxDiffArea)
	if err != nil {
		t.Fatal(err)
	}
	return histOracle{child: hc, parent: hp}
}

func exactFixtures() []exactFixture {
	rng := rand.New(rand.NewSource(8))
	gen := func(n int, target func(i int) int64) exactFixture {
		f := exactFixture{y: make([]int64, n), a: make([]int64, n)}
		for i := 0; i < n; i++ {
			f.y[i] = rng.Int63n(650) - 80
			f.a[i] = target(i)
		}
		return f
	}
	named := func(name, form string, f exactFixture) exactFixture { f.name, f.form = name, form; return f }
	extremes := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64 + 1, math.MaxInt64 - 1, -4096}
	overflow := []int64{math.MinInt64, math.MaxInt64, 0, -1}
	wide := func() int64 { return rng.Int63n(1<<41) - 1<<40 }
	// Chunk-local row numbers: a chunk of scanChunkRows rows holds that many
	// distinct values, so foldBatch/scanChunkRows chunks fill a fold batch.
	local := func(i int) int64 { return int64(i % scanChunkRows) }
	const batchChunks = foldBatch / scanChunkRows
	return []exactFixture{
		named("empty", "", gen(0, nil)),
		named("single-chunk", "dense", gen(1000, func(int) int64 { return rng.Int63n(200) })),
		named("fractional-multi-chunk", "dense", gen(3*scanChunkRows+123, func(int) int64 { return rng.Int63n(1500) - 700 })),
		named("extremes", "sorted", gen(2*scanChunkRows+9, func(i int) int64 { return extremes[rng.Intn(len(extremes))] })),
		named("all-equal", "dense", gen(2*scanChunkRows+500, func(int) int64 { return -17 })),
		// Nearly all-distinct targets: the root's pending backlog crosses
		// foldBatch mid-scan several times, and later chunks revisit values
		// the root already holds.
		named("fold-boundary", "dense", gen(40*scanChunkRows+77, func(i int) int64 { return int64(i%90001) * 3 })),
		// A short stream over a span of 2^18: the window would outgrow both
		// the foldBatch floor and four times the entries, so it stays sorted.
		named("short-wide", "sorted", gen(2*scanChunkRows, func(int) int64 { return rng.Int63n(1 << 18) })),
		// Values over ±2^40: no fold's span fits the dense window.
		named("wide-span", "sorted", gen(3*scanChunkRows+5, func(int) int64 { return wide() })),
		// The first fold batches are narrow and fold densely; the wide tail
		// grows the span past the guard and converts the root to pairs.
		named("dense-then-sorted", "sorted", gen((batchChunks+4)*scanChunkRows+31, func(i int) int64 {
			if i < (batchChunks+2)*scanChunkRows {
				return local(i)
			}
			return wide()
		})),
		// The window first covers [0, 4096), then re-bases below it to
		// [-4096, 4096) and above it to [-4096, 8192).
		named("rebase-below-and-above", "dense", gen((2*batchChunks+6)*scanChunkRows, func(i int) int64 {
			switch c := i / scanChunkRows; {
			case c < batchChunks+2:
				return local(i)
			case c < 2*batchChunks+2:
				return local(i) - scanChunkRows
			default:
				return local(i) + scanChunkRows
			}
		})),
		// hi - lo + 1 wraps to 0 in uint64: the guard must not admit it.
		named("overflow-span", "sorted", gen(2*scanChunkRows+3, func(int) int64 { return overflow[rng.Intn(len(overflow))] })),
	}
}

func (f exactFixture) table(t testing.TB, segment bool) *data.Table {
	t.Helper()
	tab := data.MustNewTable("S", "y", "a")
	if err := tab.AppendColumns(f.y, f.a); err != nil {
		t.Fatal(err)
	}
	if !segment {
		return tab
	}
	path := filepath.Join(t.TempDir(), "s.seg")
	if err := data.WriteSegment(path, tab); err != nil {
		t.Fatal(err)
	}
	seg, err := data.OpenSegmentTable(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	return seg
}

func samePairBits(a, b []histogram.ValueFreq) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Value != b[i].Value || math.Float64bits(a[i].Freq) != math.Float64bits(b[i].Freq) {
			return false
		}
	}
	return true
}

// TestExactConsumerBitIdenticalToMapReference: the exact consumer must
// reproduce the map consumer's per-value sums and total mass bit for bit at
// every scan width, from memory and from a streamed segment, with its root in
// the dense form, the sorted form, or switching between them mid-scan.
func TestExactConsumerBitIdenticalToMapReference(t *testing.T) {
	for _, f := range exactFixtures() {
		t.Run(f.name, func(t *testing.T) {
			o := fractionalOracle(t, f.y)
			job := func(c consumer) []*scanJob {
				return []*scanJob{{targetAttr: "a", preds: []jobPred{{attr: "y", o: o}}, cons: c}}
			}
			ref := newMapConsumer()
			if _, err := runSharedScan(f.table(t, false), job(ref), 1, nil); err != nil {
				t.Fatal(err)
			}
			want := ref.pairs()
			if f.name == "fold-boundary" && len(want) <= foldBatch {
				t.Fatalf("fixture has %d distinct values, need more than foldBatch = %d", len(want), foldBatch)
			}
			if len(f.y) > 0 && ref.mass == math.Trunc(ref.mass) {
				t.Fatalf("streamed mass %v is integral: the fixture does not exercise fractional weights", ref.mass)
			}
			wantHist, _, err := ref.result(100, histogram.MaxDiffArea)
			if err != nil {
				t.Fatal(err)
			}
			for _, segment := range []bool{false, true} {
				tab := f.table(t, segment)
				for _, width := range []int{1, 2, 4, 8} {
					c := newFullConsumer()
					if _, err := runSharedScan(tab, job(c), width, nil); err != nil {
						t.Fatal(err)
					}
					c.absorb(c)
					if form := rootForm(c); form != f.form {
						t.Errorf("segment=%v width=%d: root ends in the %q form, want %q", segment, width, form, f.form)
					}
					h, mass, err := c.result(100, histogram.MaxDiffArea)
					if err != nil {
						t.Fatal(err)
					}
					if !samePairBits(c.root, want) {
						t.Errorf("segment=%v width=%d: per-value sums differ from the map reference (%d vs %d values)",
							segment, width, len(c.root), len(want))
					}
					if math.Float64bits(mass) != math.Float64bits(ref.mass) {
						t.Errorf("segment=%v width=%d: mass %v, map reference %v", segment, width, mass, ref.mass)
					}
					if fmt.Sprint(h.Buckets) != fmt.Sprint(wantHist.Buckets) {
						t.Errorf("segment=%v width=%d: histogram differs from the map reference", segment, width)
					}
				}
			}
		})
	}
}

// rootForm names the form the consumer's folded sums are held in.
func rootForm(c *fullConsumer) string {
	switch {
	case len(c.acc) > 0:
		return "dense"
	case len(c.root) > 0:
		return "sorted"
	}
	return ""
}

// TestExactFoldForms feeds a serial root chunk by chunk, one fold batch at a
// time, and checks the form and window after every fold — sorted to dense,
// re-bases below and above, dense to sorted — then the sums against the map
// reference.
func TestExactFoldForms(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c, ref := newFullConsumer(), newMapConsumer()
	var s probeScratch
	var ts sortedCol
	// feed streams one fold batch of foldBatch rows, value(i) for row i.
	feed := func(value func(i int) int64) {
		for lo := 0; lo < foldBatch; lo += scanChunkRows {
			target, m := make([]int64, scanChunkRows), make([]float64, scanChunkRows)
			for r := range target {
				target[r], m[r] = value(lo+r), 0.25+rng.Float64()
			}
			s.argsort(target, &ts)
			c.addChunk(target, m, &ts)
			ref.addChunk(target, m, nil)
		}
	}
	const top = (foldBatch-1)*5 + 1 // greatest value of the first two batches
	for step, tc := range []struct {
		name     string
		value    func(i int) int64
		form     string
		lo, span int64
	}{
		// Span 5·foldBatch > denseSlots(0, foldBatch) = 4·foldBatch.
		{"first fold too wide", func(i int) int64 { return int64(i) * 5 }, "sorted", 0, 0},
		// The root now holds foldBatch values: the span fits.
		{"sorted to dense", func(i int) int64 { return int64(i)*5 + 1 }, "dense", 0, top + 1},
		{"re-base below", func(i int) int64 { return -int64(i%4096) - 1 }, "dense", -4096, top + 1 + 4096},
		{"re-base above", func(i int) int64 { return top + 1 + int64(i%4096) }, "dense", -4096, top + 1 + 2*4096},
		{"dense to sorted", func(int) int64 { return rng.Int63n(1<<41) - 1<<40 }, "sorted", 0, 0},
	} {
		feed(tc.value)
		if len(c.pv) != 0 {
			t.Fatalf("step %d (%s): %d entries still pending after a full fold batch", step, tc.name, len(c.pv))
		}
		if form := rootForm(c); form != tc.form {
			t.Fatalf("step %d (%s): root in the %q form, want %q", step, tc.name, form, tc.form)
		}
		if tc.form == "dense" && (c.lo != tc.lo || int64(len(c.acc)) != tc.span) {
			t.Fatalf("step %d (%s): window [%d, +%d), want [%d, +%d)", step, tc.name, c.lo, len(c.acc), tc.lo, tc.span)
		}
	}
	if _, _, err := c.result(10, histogram.MaxDiffArea); err != nil {
		t.Fatal(err)
	}
	if !samePairBits(c.root, ref.pairs()) {
		t.Fatal("per-value sums differ from the map reference")
	}
}

// BenchmarkExactFold measures exact aggregation alone — chunk argsort, run
// fold and root merge against the preserved per-chunk map reference — over
// bench-sized streams, in ns per streamed row. Targets are uniform in
// [lo, hi); the signed domain is shaped like the bench workloads' SIT
// attribute a, which spans [-d/10, 1.1·d) for a join domain d. The domain
// cases fit the root's dense window; sparse=2^40 never does and pins the
// sorted form's cost.
func BenchmarkExactFold(b *testing.B) {
	const rows = 600000
	for _, dom := range []struct {
		name   string
		lo, hi int64
	}{
		{"domain=60000", 0, 60000},
		{"domain=300000", 0, 300000},
		{"signed=60000", -6000, 66000},
		{"sparse=2^40", 0, 1 << 40},
	} {
		rng := rand.New(rand.NewSource(1))
		target := make([]int64, rows)
		m := make([]float64, rows)
		for i := range target {
			target[i] = dom.lo + rng.Int63n(dom.hi-dom.lo)
			m[i] = 0.25 + rng.Float64()
		}
		run := func(b *testing.B, feed func(target []int64, m []float64), finish func()) {
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < rows; lo += scanChunkRows {
					hi := min(lo+scanChunkRows, rows)
					feed(target[lo:hi], m[lo:hi])
				}
				finish()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		}
		b.Run(dom.name+"/radix", func(b *testing.B) {
			var s probeScratch
			var ts sortedCol
			var c *fullConsumer
			run(b, func(target []int64, m []float64) {
				if c == nil {
					c = newFullConsumer()
				}
				s.argsort(target, &ts)
				c.addChunk(target, m, &ts)
			}, func() {
				c.absorb(c)
				c = nil
			})
		})
		b.Run(dom.name+"/map-ref", func(b *testing.B) {
			var c *mapConsumer
			run(b, func(target []int64, m []float64) {
				if c == nil {
					c = newMapConsumer()
				}
				c.addChunk(target, m, nil)
			}, func() {
				sinkPairs = c.pairs()
				c = nil
			})
		})
	}
}

var sinkPairs []histogram.ValueFreq
