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

// TestMultiplicityBatchMatchesScalar: each batched oracle must return, per
// element of an unsorted probe vector, exactly the float the scalar
// multiplicity call returns — including probes outside both histograms and
// absent from the index.
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
	oracles := map[string]interface {
		oracle
		batchOracle
	}{
		"hist":  histOracle{child: hR, parent: hS},
		"index": indexOracle{idx: btree.Build(xs)},
	}
	probes := randVals(rng, 1500, -400, 800) // unsorted, duplicates, misses
	var scratch probeScratch
	for name, o := range oracles {
		out := make([]float64, len(probes))
		o.multiplicityBatch(probes, out, &scratch)
		for i, v := range probes {
			if want := o.multiplicity([]int64{v}); out[i] != want {
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
func (r *recorder) fork(int) (consumer, error) { return &recorder{sorted: r.sorted}, nil }
func (r *recorder) merge(shard consumer) error {
	s := shard.(*recorder)
	r.pairs = append(r.pairs, s.pairs...)
	if s.bad != "" {
		r.bad = s.bad
	}
	return nil
}

// feedChunkRowRef is the pre-refactor row-at-a-time feedChunk, kept as the
// bit-identity reference for the batched implementation.
func feedChunkRowRef(ch data.Chunk, jobs []*scanJob, dst []consumer) {
	n := ch.Len()
	var vbuf [4]int64
	for r := 0; r < n; r++ {
		for ji, j := range jobs {
			m := 1.0
			for pi := range j.preds {
				p := &j.preds[pi]
				vals := vbuf[:0]
				for _, c := range p.cols {
					vals = append(vals, ch.Cols[c][r])
				}
				m *= p.o.multiplicity(vals)
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

// probeJobs builds a mixed job set: a single batchable histogram predicate
// (the straight-into-scratch fast path), a single index predicate, a
// two-predicate job (batched product path), and a job mixing a 2-D oracle
// (row fallback) with a batchable one.
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
	h2R, err := histogram.Build2D(xs, randVals(rng, 800, 0, 50), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	h2S, err := histogram.Build2D(ys, randVals(rng, 600, 0, 50), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	ho := histOracle{child: hR, parent: hS}
	io := indexOracle{idx: btree.Build(xs)}
	o2 := oracle2D{child: h2R, parent: h2S}
	return []*scanJob{
		{targetAttr: "a", preds: []jobPred{newJobPred([]string{"u"}, ho)}},
		{targetAttr: "a", preds: []jobPred{newJobPred([]string{"v"}, io)}},
		{targetAttr: "b", preds: []jobPred{newJobPred([]string{"u"}, ho), newJobPred([]string{"v"}, io)}},
		{targetAttr: "a", preds: []jobPred{newJobPred([]string{"u", "w"}, o2), newJobPred([]string{"v"}, ho)}},
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
	// Jobs 0, 2 and 3 probe column u with the same histogram oracle and jobs
	// 1 and 2 column v with the same index: three distinct probes serve five
	// predicates (the 2-D one is never batched), and the sorted jobs 0 and 2
	// target different attributes.
	if len(plan.probes) != 3 || len(plan.sorts) != 2 {
		t.Fatalf("plan shares %d probes and %d target sorts, want 3 and 2", len(plan.probes), len(plan.sorts))
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
		feedChunkRowRef(ch, jobs, want)
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

// stripBatch returns a deep copy of jobs with every predicate's batched
// interface removed, forcing feedChunk down the row fallback.
func stripBatch(jobs []*scanJob) []*scanJob {
	out := make([]*scanJob, len(jobs))
	for i, j := range jobs {
		cp := *j
		cp.preds = make([]jobPred, len(j.preds))
		for pi, p := range j.preds {
			cp.preds[pi] = jobPred{attrs: p.attrs, o: p.o}
		}
		out[i] = &cp
	}
	return out
}

// TestSharedScanBatchedProbingBitIdentical: a full shared scan over a
// multi-chunk table must deliver identical consumer streams whether the
// oracles are probed per chunk or per row, at serial and parallel worker
// counts.
func TestSharedScanBatchedProbingBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tab := data.MustNewTable("T", "a", "b", "u", "v", "w")
	for i := 0; i < 2*scanChunkRows+391; i++ {
		if err := tab.AppendRow(rng.Int63n(2000), rng.Int63n(2000),
			rng.Int63n(400)-200, rng.Int63n(400)-200, rng.Int63n(50)); err != nil {
			t.Fatal(err)
		}
	}
	for _, par := range []int{1, 4} {
		run := func(jobs []*scanJob, sorted bool) [][]vmPair {
			cons := make([]*recorder, len(jobs))
			for i, j := range jobs {
				cons[i] = &recorder{sorted: sorted}
				j.cons = cons[i]
			}
			if err := runSharedScan(tab, jobs, par); err != nil {
				t.Fatal(err)
			}
			out := make([][]vmPair, len(cons))
			for i, c := range cons {
				if c.bad != "" {
					t.Fatalf("parallelism %d job %d: %s", par, i, c.bad)
				}
				out[i] = c.pairs
			}
			return out
		}
		for _, sorted := range []bool{false, true} {
			batched := run(probeJobs(t, rand.New(rand.NewSource(6))), sorted)
			rowwise := run(stripBatch(probeJobs(t, rand.New(rand.NewSource(6)))), sorted)
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
