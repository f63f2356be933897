package sit

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/sitstats/sits/internal/btree"
	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/histogram"
	"github.com/sitstats/sits/internal/query"
)

func randVals(rng *rand.Rand, n int, lo, span int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = lo + rng.Int63n(span)
	}
	return out
}

// scalarMultiplicity is the per-value reference of the batched m-Oracles:
// histogram.ContainmentMultiplicity for histogram oracles and Tree.Count for
// index oracles.
func scalarMultiplicity(o oracle, v int64) float64 {
	switch o := o.(type) {
	case histOracle:
		return histogram.ContainmentMultiplicity(o.child, o.parent, v)
	case indexOracle:
		return float64(o.idx.Count(v))
	}
	panic("unknown oracle")
}

// TestMultiplicityBatchMatchesScalar: each batched oracle must return, per
// element of an unsorted probe vector, exactly the float its scalar reference
// (scalarMultiplicity) returns — including probes outside both histograms
// and absent from the index.
func TestMultiplicityBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := randVals(rng, 900, -150, 300)
	ys := randVals(rng, 700, -50, 300)
	hR, err := histogram.FromValues(xs, 9, histogram.MaxDiffArea)
	if err != nil {
		t.Fatal(err)
	}
	hS, err := histogram.FromValues(ys, 6, histogram.MaxDiffArea)
	if err != nil {
		t.Fatal(err)
	}
	oracles := map[string]oracle{
		"hist":  histOracle{child: hR, parent: hS},
		"index": indexOracle{idx: btree.Build(xs)},
	}
	probes := randVals(rng, 1500, -400, 800) // unsorted, duplicates, misses
	var scratch probeScratch
	for name, o := range oracles {
		out := make([]float64, len(probes))
		o.multiplicityBatch(probes, out, &scratch)
		for i, v := range probes {
			if want := scalarMultiplicity(o, v); out[i] != want {
				t.Fatalf("%s: batch m(%d) = %v, scalar = %v", name, v, out[i], want)
			}
		}
	}
	var empty []int64
	oracles["hist"].multiplicityBatch(empty, nil, &scratch) // must not panic
}

// vmPair records one streamed (value, multiplicity) pair.
type vmPair struct {
	v int64
	m float64
}

// recorder is a consumer that records its exact stream, so two scan
// implementations can be compared pair for pair. sorted makes it ask for the
// target argsort the way the exact consumer does (it checks the argsort and
// still records in row order).
type recorder struct {
	pairs  []vmPair
	sorted bool
	bad    string
}

func (r *recorder) add(v int64, m float64) { r.pairs = append(r.pairs, vmPair{v, m}) }
func (r *recorder) addChunk(target []int64, m []float64, ts *sortedCol) {
	if (ts != nil) != r.sorted {
		r.bad = "argsort presence does not match sortsTarget"
	}
	if ts != nil {
		for i, p := range ts.perm {
			if ts.vals[i] != target[p] || (i > 0 && (ts.vals[i-1] > ts.vals[i] ||
				(ts.vals[i-1] == ts.vals[i] && ts.perm[i-1] > p))) {
				r.bad = "target argsort is not a stable ascending argsort"
			}
		}
	}
	for i, mv := range m {
		if mv > 0 {
			r.add(target[i], mv)
		}
	}
}
func (r *recorder) sortsTarget() bool { return r.sorted }
func (r *recorder) result(int, histogram.Method) (*histogram.Histogram, float64, error) {
	return nil, 0, nil
}
func (r *recorder) fork(int, int) (consumer, error) { return &recorder{sorted: r.sorted}, nil }
func (r *recorder) merge(shard consumer) error {
	s := shard.(*recorder)
	r.pairs = append(r.pairs, s.pairs...)
	if s.bad != "" {
		r.bad = s.bad
	}
	return nil
}

// feedChunkRowRef is the row-at-a-time form of feedChunk over the scalar
// references, kept as the bit-identity reference for the batched kernel.
func feedChunkRowRef(ch data.Chunk, p *scanPlan, dst []consumer) {
	n := ch.Len()
	for r := 0; r < n; r++ {
		for ji, j := range p.jobs {
			m := 1.0
			for _, jp := range j.preds {
				pr := p.probes[jp.probe]
				m *= scalarMultiplicity(pr.o, ch.Cols[pr.col][r])
				if m == 0 {
					break
				}
			}
			if m > 0 {
				dst[ji].(*recorder).add(ch.Cols[j.targetCol][r], m)
			}
		}
	}
}

// probeJobs builds a mixed job set: a single histogram predicate (the
// straight-into-scratch fast path), a single index predicate, and two
// two-predicate jobs (the product path) — one mixing oracle kinds, one the
// product of two 1-D histogram oracles a double-predicate edge resolves to.
func probeJobs(t *testing.T, rng *rand.Rand) []*scanJob {
	t.Helper()
	xs := randVals(rng, 800, -100, 200)
	ys := randVals(rng, 600, -60, 200)
	hR, err := histogram.FromValues(xs, 8, histogram.MaxDiffArea)
	if err != nil {
		t.Fatal(err)
	}
	hS, err := histogram.FromValues(ys, 5, histogram.MaxDiffArea)
	if err != nil {
		t.Fatal(err)
	}
	hW, err := histogram.FromValues(randVals(rng, 800, 0, 50), 4, histogram.MaxDiffArea)
	if err != nil {
		t.Fatal(err)
	}
	ho := histOracle{child: hR, parent: hS}
	io := indexOracle{idx: btree.Build(xs)}
	hw := histOracle{child: hW, parent: hW}
	return []*scanJob{
		{targetAttr: "a", preds: []jobPred{{attr: "u", o: ho}}},
		{targetAttr: "a", preds: []jobPred{{attr: "v", o: io}}},
		{targetAttr: "b", preds: []jobPred{{attr: "u", o: ho}, {attr: "v", o: io}}},
		{targetAttr: "a", preds: []jobPred{{attr: "w", o: hw}, {attr: "v", o: ho}}},
	}
}

// TestFeedChunkMatchesRowReference: the vectorized feedChunk must issue the
// exact same (value, multiplicity) stream to every consumer as the row loop.
func TestFeedChunkMatchesRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	jobs := probeJobs(t, rng)
	got := make([]consumer, len(jobs))
	for i, j := range jobs {
		got[i] = &recorder{sorted: i%2 == 0}
		j.cons = got[i]
	}
	plan := planScan(jobs)
	// Jobs 0 and 2 probe column u with the same histogram oracle and jobs 1
	// and 2 column v with the same index: four distinct probes serve six
	// predicates, and the sorted jobs 0 and 2 target different attributes.
	if len(plan.probes) != 4 || len(plan.sorts) != 2 {
		t.Fatalf("plan shares %d probes and %d target sorts, want 4 and 2", len(plan.probes), len(plan.sorts))
	}
	for _, n := range []int{0, 1, 37, 4096} {
		ch := data.Chunk{Cols: make([][]int64, len(plan.cols))}
		for c := range plan.cols {
			ch.Cols[c] = randVals(rng, n, -300, 600)
		}
		want := make([]consumer, len(jobs))
		for i := range jobs {
			got[i].(*recorder).pairs = nil
			want[i] = &recorder{}
		}
		var scratch probeScratch
		feedChunk(ch, plan, got, &scratch)
		feedChunkRowRef(ch, plan, want)
		for i := range jobs {
			g, w := got[i].(*recorder), want[i].(*recorder)
			if g.bad != "" {
				t.Fatalf("chunk len %d job %d: %s", n, i, g.bad)
			}
			if !reflect.DeepEqual(g.pairs, w.pairs) {
				t.Fatalf("chunk len %d job %d: batched stream (%d adds) != row stream (%d adds)",
					n, i, len(g.pairs), len(w.pairs))
			}
		}
	}
}

// TestSharedScanBatchedProbingBitIdentical: a full shared scan over a
// multi-chunk table must deliver the consumer streams of the row reference
// run over the same chunk grid, at serial and parallel worker counts.
func TestSharedScanBatchedProbingBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tab := data.MustNewTable("T", "a", "b", "u", "v", "w")
	for i := 0; i < 2*scanChunkRows+391; i++ {
		if err := tab.AppendRow(rng.Int63n(2000), rng.Int63n(2000),
			rng.Int63n(400)-200, rng.Int63n(400)-200, rng.Int63n(50)); err != nil {
			t.Fatal(err)
		}
	}
	record := func(sorted bool, scan func(jobs []*scanJob, dst []consumer)) [][]vmPair {
		jobs := probeJobs(t, rand.New(rand.NewSource(6)))
		dst := make([]consumer, len(jobs))
		for i, j := range jobs {
			dst[i] = &recorder{sorted: sorted}
			j.cons = dst[i]
		}
		scan(jobs, dst)
		out := make([][]vmPair, len(dst))
		for i, c := range dst {
			if bad := c.(*recorder).bad; bad != "" {
				t.Fatalf("job %d: %s", i, bad)
			}
			out[i] = c.(*recorder).pairs
		}
		return out
	}
	rowwise := record(false, func(jobs []*scanJob, dst []consumer) {
		plan := planScan(jobs)
		rd, err := tab.OpenChunks(scanChunkRows, plan.cols...)
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		for {
			ch, ok, err := rd.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
			feedChunkRowRef(ch, plan, dst)
		}
	})
	for _, par := range []int{1, 4} {
		for _, sorted := range []bool{false, true} {
			batched := record(sorted, func(jobs []*scanJob, _ []consumer) {
				if _, err := runSharedScan(tab, jobs, par, nil); err != nil {
					t.Fatal(err)
				}
			})
			if !reflect.DeepEqual(batched, rowwise) {
				t.Fatalf("parallelism %d sorted %v: batched scan stream != row scan stream", par, sorted)
			}
		}
	}
}

// TestSweepMethodsStableUnderBatchedProbing: the acceptance bar of the
// batched m-Oracle path — Sweep, SweepFull and SweepIndex stay deterministic
// at parallelism 1 and 4, and SweepFull additionally matches across the two
// levels (its consumers aggregate per fixed chunk).
func TestSweepMethodsStableUnderBatchedProbing(t *testing.T) {
	cat := multiChunkCatalog(t, 2*scanChunkRows+57)
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	spec, err := query.NewSITSpec("S", "a", e)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{Sweep, SweepFull, SweepIndex} {
		var perLevel []*SIT
		for _, par := range []int{1, 4} {
			first := buildAt(t, cat, spec, m, par)
			second := buildAt(t, cat, spec, m, par)
			if !sameSIT(first, second) {
				t.Errorf("%v at parallelism %d: two identically-seeded builds differ", m, par)
			}
			perLevel = append(perLevel, first)
		}
		if m == SweepFull && !sameSIT(perLevel[0], perLevel[1]) {
			t.Errorf("SweepFull: parallelism 1 and 4 disagree: card %v vs %v",
				perLevel[0].EstimatedCard, perLevel[1].EstimatedCard)
		}
	}
}
