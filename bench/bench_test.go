package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/sitstats/sits/internal/cardest"
)

func TestPercentileNearestRank(t *testing.T) {
	var vals []uint32
	for v := uint32(1); v <= 100; v++ {
		vals = append(vals, v)
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(vals, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]uint32{7}, 99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
}

func TestSummarizeWindowCountsFailuresAsAttempted(t *testing.T) {
	w := summarizeWindow([]uint32{3000, 1000, 2000, 4000}, 2, 0.5)
	if w.Attempted != 6 || w.Succeeded != 4 || w.Failed != 2 {
		t.Errorf("ledger = %+v, want 6 attempted, 4 ok, 2 failed", w)
	}
	if w.P50us != 2 || w.P99us != 4 {
		t.Errorf("p50/p99 = %v/%v us, want 2/4", w.P50us, w.P99us)
	}
	if math.Abs(w.Kops-0.008) > 1e-12 {
		t.Errorf("kops = %v, want 0.008 (successes only)", w.Kops)
	}
}

func TestMedianOfWindows(t *testing.T) {
	ws := []windowStats{{P50us: 9}, {P50us: 1}, {P50us: 5}, {P50us: 100}, {P50us: 4}}
	if got := medianOfWindows(ws, func(w windowStats) float64 { return w.P50us }); got != 5 {
		t.Errorf("median of window p50s = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

func TestQuietDecile(t *testing.T) {
	vals := []float64{9, 1, 5, 100, 4}
	if got := quietDecile(vals, true); got != 1 {
		t.Errorf("first decile of five = %v, want the lowest, 1", got)
	}
	if got := quietDecile(vals, false); got != 100 {
		t.Errorf("ninth decile of five = %v, want the highest, 100", got)
	}
	if got := quietDecile([]float64{7}, true); got != 7 {
		t.Errorf("decile of one value = %v, want 7", got)
	}
	if vals[0] != 9 {
		t.Error("quietDecile reordered its input")
	}
	var sixty []float64
	for v := 60; v >= 1; v-- {
		sixty = append(sixty, float64(v))
	}
	if lo, hi := quietDecile(sixty, true), quietDecile(sixty, false); lo != 6 || hi != 55 {
		t.Errorf("deciles of 1..60 = %v and %v, want 6 and 55", lo, hi)
	}
}

func TestSlicesOfAWindow(t *testing.T) {
	ps := phaseSpec{window: 350 * time.Millisecond, slice: 100 * time.Millisecond}
	if ps.numSlices() != 3 {
		t.Fatalf("350 ms in 100 ms slices = %d slices, want 3", ps.numSlices())
	}
	for at, want := range map[time.Duration]int{0: 0, 99 * time.Millisecond: 0, 100 * time.Millisecond: 1, 349 * time.Millisecond: 2} {
		if got := ps.sliceOf(at); got != want {
			t.Errorf("sliceOf(%v) = %d, want %d", at, got, want)
		}
	}
	whole := phaseSpec{window: time.Second}
	if whole.numSlices() != 1 || whole.sliceOf(900*time.Millisecond) != 0 {
		t.Error("a phase without a slice length must treat the window as one slice")
	}
	s := summarizeSlice([]uint32{3000, 1000, 2000, 4000}, 0.1)
	if s.N != 4 || s.P50us != 2 || s.P99us != 4 || math.Abs(s.Kops-0.04) > 1e-12 {
		t.Errorf("slice summary = %+v, want n 4, p50 2, p99 4, 0.04 k/s", s)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "window", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "request", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "request", StartNS: 30, EndNS: 60},  // overlaps 2
		{ID: 4, Parent: 1, Name: "request", StartNS: 35, EndNS: 38},  // inside 2 and 3
		{ID: 5, Parent: 1, Name: "request", StartNS: 90, EndNS: 130}, // sticks out
		{ID: 6, Parent: 2, Name: "probe", StartNS: 10, EndNS: 25},
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [90,100): 60 of the window's 100.
	if self[1] != 40 {
		t.Errorf("window self time = %d, want 40", self[1])
	}
	if self[2] != 15 {
		t.Errorf("request self time = %d, want 15 (30 minus a 15 ns child)", self[2])
	}
	if self[6] != 15 {
		t.Errorf("leaf self time = %d, want its duration 15", self[6])
	}
	rows := spanTable(spans)
	if rows[0].Name != "request" || rows[0].Count != 4 {
		t.Errorf("span table leads with %+v, want the 4 request spans", rows[0])
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.start("x", 0, 0)
	if id != 0 || tr.end(id) != 0 || tr.closed() != nil {
		t.Error("nil tracer recorded something")
	}
}

func requestSequence(t *testing.T, w workload, seed int64, n int) []string {
	t.Helper()
	tf, err := newTraffic(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := clientRNG(seed, 1, 0)
	out := make([]string, n)
	for i := range out {
		out[i] = tf.next(rng).String()
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range fullWorkloads() {
		a, b := requestSequence(t, w, 7, 500), requestSequence(t, w, 7, 500)
		c := requestSequence(t, w, 8, 500)
		same, differs := true, false
		for i := range a {
			same = same && a[i] == b[i]
			differs = differs || a[i] != c[i]
		}
		if !same {
			t.Errorf("%s: seed 7 gave two different request sequences", w.name)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", w.name)
		}
	}
}

func TestSameSeedSameTables(t *testing.T) {
	w, _ := findWorkload(smokeWorkloads(), "sample_plans")
	a, err := w.generate(3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := w.generate(3)
	c, _ := w.generate(4)
	ca, cb, cc := a.tables[1].MustColumn("jprev"), b.tables[1].MustColumn("jprev"), c.tables[1].MustColumn("jprev")
	same, differs := true, false
	for i := range ca {
		same = same && ca[i] == cb[i]
		differs = differs || ca[i] != cc[i]
	}
	if !same || !differs {
		t.Errorf("generated tables: same seed identical = %v, other seed differs = %v", same, differs)
	}
}

func TestShapePopulationIsLargeAndDistinct(t *testing.T) {
	w, _ := findWorkload(fullWorkloads(), "spill_cold")
	shapes, err := w.shapePopulation(1)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, s := range shapes {
		var cols []cardest.PredColumn
		for _, p := range s.preds {
			cols = append(cols, cardest.PredColumn{Table: p.table, Attr: p.attr})
		}
		keys[cardest.ShapeKey(s.expr, cols)] = true
	}
	if len(keys) < 8192 {
		t.Errorf("shape population has %d distinct shape keys, want >= 8192", len(keys))
	}
}

// BENCHMARK.json is what the driver reads; contract.go is what the harness
// prints. They must name the same metrics, units, directions and bounds.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &decl); err != nil {
		t.Fatal(err)
	}
	ws := fullWorkloads()
	if len(decl.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(decl.Workloads), len(ws))
	}
	for i, w := range ws {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, harness has %q: %q", i, decl.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, harness has %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json differs from the harness's %v", kind, d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s metric %s: per-layer metrics carry no bound", kind, d.name)
			}
		}
	}
	compare("end_to_end", decl.EndToEnd, endToEndDefs, true)
	compare("per_layer", decl.PerLayer, perLayerDefs, false)
}

// TestSmokeLifecycle drives all four workloads end to end at smoke scale —
// set-up, creation passes, in-process serving, daemon launch, HTTP serving,
// checks, teardown — and one of them traced.
func TestSmokeLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches sitserve")
	}
	if old, ok := os.LookupEnv("TMPDIR"); ok {
		defer os.Setenv("TMPDIR", old)
	} else {
		defer os.Unsetenv("TMPDIR")
	}
	e, err := newEnv(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	opt := options{seed: 1, seconds: 1, smoke: true}
	for _, w := range smokeWorkloads() {
		runs := []bool{false}
		if w.name == "sample_plans" {
			runs = append(runs, true)
		}
		for _, traced := range runs {
			opt.trace = traced
			res, err := runWorkload(e, w, opt)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s (traced %v): check %s failed: %s", w.name, traced, c.Name, c.Detail)
				}
			}
			if res.failed() != 0 || res.attempted() == 0 {
				t.Errorf("%s: attempted %d, failed %d", w.name, res.attempted(), res.failed())
			}
			defs, vals := endToEndDefs, res.EndToEnd
			if traced {
				defs, vals = perLayerDefs, res.PerLayer
			}
			for _, d := range defs {
				v, ok := vals[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s (traced %v): metric %s missing or not finite (%v)", w.name, traced, d.name, v)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, v)
				}
			}
		}
	}
	e.close()
	if _, err := os.Stat(e.runDir); !os.IsNotExist(err) {
		t.Errorf("run directory %s survived teardown (err %v)", e.runDir, err)
	}
}
