package sit

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/datagen"
	"github.com/sitstats/sits/internal/exec"
	"github.com/sitstats/sits/internal/histogram"
	"github.com/sitstats/sits/internal/query"
	"github.com/sitstats/sits/internal/workload"
)

func newBuilder(t *testing.T, cat *data.Catalog) *Builder {
	t.Helper()
	b, err := NewBuilder(cat, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func makeTable(t *testing.T, name string, cols []string, rows [][]int64) *data.Table {
	t.Helper()
	tab := data.MustNewTable(name, cols...)
	for _, r := range rows {
		if err := tab.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// smallJoinCatalog: R(x), S(y,a) with known join result.
func smallJoinCatalog(t *testing.T) *data.Catalog {
	t.Helper()
	cat := data.NewCatalog()
	cat.MustAdd(makeTable(t, "R", []string{"x"},
		[][]int64{{1}, {1}, {2}, {3}, {3}, {3}}))
	cat.MustAdd(makeTable(t, "S", []string{"y", "a"},
		[][]int64{{1, 10}, {2, 20}, {3, 30}, {4, 40}, {3, 50}}))
	return cat
}

func singleJoinSpec(t *testing.T) query.SITSpec {
	t.Helper()
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	spec, err := query.NewSITSpec("S", "a", e)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestConfigValidation(t *testing.T) {
	cat := data.NewCatalog()
	if _, err := NewBuilder(nil, DefaultConfig()); err == nil {
		t.Error("nil catalog: want error")
	}
	bad := DefaultConfig()
	bad.Buckets = 0
	if _, err := NewBuilder(cat, bad); err == nil {
		t.Error("zero buckets: want error")
	}
	bad = DefaultConfig()
	bad.SampleRate = 0
	if _, err := NewBuilder(cat, bad); err == nil {
		t.Error("zero sample rate: want error")
	}
	bad = DefaultConfig()
	bad.SampleRate = 1.5
	if _, err := NewBuilder(cat, bad); err == nil {
		t.Error("sample rate > 1: want error")
	}
	bad = DefaultConfig()
	bad.MinSample = 0
	if _, err := NewBuilder(cat, bad); err == nil {
		t.Error("zero min sample: want error")
	}
}

func TestMethodString(t *testing.T) {
	want := map[Method]string{
		HistSIT: "Hist-SIT", Sweep: "Sweep", SweepIndex: "SweepIndex",
		SweepFull: "SweepFull", SweepExact: "SweepExact", Materialize: "Materialize",
		Method(42): "Method(42)",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if len(Methods()) != 5 {
		t.Errorf("Methods() = %v", Methods())
	}
}

func TestBaseSpec(t *testing.T) {
	cat := smallJoinCatalog(t)
	b := newBuilder(t, cat)
	base, _ := query.NewBaseExpr("S")
	spec, err := query.NewSITSpec("S", "a", base)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{HistSIT, Sweep, SweepExact} {
		s, err := b.Build(spec, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if math.Abs(s.Hist.TotalFreq()-5) > 1e-9 {
			t.Errorf("%v: base SIT total = %v, want 5", m, s.Hist.TotalFreq())
		}
	}
}

// TestSweepExactEqualsMaterializeSingleJoin: the core exactness claim of
// Section 3.1.2 — SweepExact's histogram is identical to executing the query
// and building a histogram over the result.
func TestSweepExactEqualsMaterializeSingleJoin(t *testing.T) {
	cat := smallJoinCatalog(t)
	b := newBuilder(t, cat)
	spec := singleJoinSpec(t)
	exact, err := b.Build(spec, SweepExact)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := b.Build(spec, Materialize)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exact.Hist.Buckets, mat.Hist.Buckets) {
		t.Errorf("SweepExact != Materialize:\n%v\n%v", exact.Hist, mat.Hist)
	}
	// True result: y=1 matches 2 R-rows (a=10 twice), y=2 one (a=20), both
	// y=3 rows match 3 each (a=30 x3, a=50 x3), y=4 none. |result| = 9.
	if exact.EstimatedCard != 9 {
		t.Errorf("EstimatedCard = %v, want 9", exact.EstimatedCard)
	}
	if got := exact.EstimateRange(30, 50); math.Abs(got-6) > 1e-9 {
		t.Errorf("EstimateRange(30,50) = %v, want 6 (30x3 + 50x3)", got)
	}
}

func TestSweepFullExactOnTinyData(t *testing.T) {
	// With nb=100 > distinct values, base histograms are exact, so even the
	// histogram m-Oracle is exact and SweepFull matches Materialize.
	cat := smallJoinCatalog(t)
	b := newBuilder(t, cat)
	spec := singleJoinSpec(t)
	full, err := b.Build(spec, SweepFull)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := b.Build(spec, Materialize)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Hist.Buckets, mat.Hist.Buckets) {
		t.Errorf("SweepFull != Materialize on exact-histogram data:\n%v\n%v", full.Hist, mat.Hist)
	}
}

func TestSweepExactEqualsMaterializeChain(t *testing.T) {
	cfg := datagen.DefaultChainConfig()
	cfg.Rows = []int{400, 300, 250, 200}
	cfg.Domain = 60
	cat, err := datagen.ChainDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := newBuilder(t, cat)
	for _, tables := range [][]string{{"T1", "T2"}, {"T1", "T2", "T3"}, {"T1", "T2", "T3", "T4"}} {
		outs := make([]string, len(tables)-1)
		ins := make([]string, len(tables)-1)
		for i := range outs {
			outs[i] = "jnext"
			ins[i] = "jprev"
		}
		e, err := query.Chain(tables, outs, ins)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := query.NewSITSpec(tables[len(tables)-1], "a", e)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := b.Build(spec, SweepExact)
		if err != nil {
			t.Fatal(err)
		}
		mat, err := b.Build(spec, Materialize)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact.EstimatedCard-mat.EstimatedCard) > 1e-6*(mat.EstimatedCard+1) {
			t.Errorf("%d-way: SweepExact card %v != true %v", len(tables), exact.EstimatedCard, mat.EstimatedCard)
		}
		// Compare the distributions on range estimates over the SIT domain.
		lo, hasLo := mat.Hist.Min()
		hi, _ := mat.Hist.Max()
		if !hasLo {
			t.Fatalf("%d-way: empty ground truth", len(tables))
		}
		step := (hi - lo + 1) / 10
		if step < 1 {
			step = 1
		}
		for a := lo; a < hi; a += step {
			g, w := exact.EstimateRange(a, a+step-1), mat.Hist.EstimateRange(a, a+step-1)
			if math.Abs(g-w) > 1e-6*(w+1) {
				t.Errorf("%d-way: range [%d,%d): SweepExact %v != Materialize %v", len(tables), a, a+step, g, w)
			}
		}
	}
}

// TestSweepExactEqualsMaterializeStar: acyclic (non-chain) generating query;
// multiplicities multiply across children (Section 3.2).
func TestSweepExactEqualsMaterializeStar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cat := data.NewCatalog()
	root := data.MustNewTable("C", "j1", "j2", "a")
	for i := 0; i < 500; i++ {
		root.AppendRow(rng.Int63n(30), rng.Int63n(30), rng.Int63n(200))
	}
	cat.MustAdd(root)
	s1 := data.MustNewTable("D1", "k")
	s2 := data.MustNewTable("D2", "k")
	for i := 0; i < 400; i++ {
		s1.AppendRow(rng.Int63n(30))
		s2.AppendRow(rng.Int63n(30))
	}
	cat.MustAdd(s1)
	cat.MustAdd(s2)
	e, err := query.NewExpr(
		query.JoinPred{LeftTable: "C", LeftAttr: "j1", RightTable: "D1", RightAttr: "k"},
		query.JoinPred{LeftTable: "C", LeftAttr: "j2", RightTable: "D2", RightAttr: "k"},
	)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := query.NewSITSpec("C", "a", e)
	if err != nil {
		t.Fatal(err)
	}
	b := newBuilder(t, cat)
	exact, err := b.Build(spec, SweepExact)
	if err != nil {
		t.Fatal(err)
	}
	trueCard, err := exec.Cardinality(cat, e)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.EstimatedCard-float64(trueCard)) > 1e-6*float64(trueCard+1) {
		t.Errorf("star SweepExact card = %v, true %d", exact.EstimatedCard, trueCard)
	}
}

// TestDeepTreeSIT: SIT over a height-2 join tree (Figure 4 shape) built with
// every technique; sanity-check cardinalities against the executor.
func TestDeepTreeSIT(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cat := data.NewCatalog()
	mk := func(name string, cols ...string) *data.Table {
		tab := data.MustNewTable(name, cols...)
		for i := 0; i < 300; i++ {
			row := make([]int64, len(cols))
			for j := range row {
				row[j] = rng.Int63n(25)
			}
			tab.AppendRow(row...)
		}
		cat.MustAdd(tab)
		return tab
	}
	mk("R", "r1", "r2", "a")
	mk("S", "s1")
	mk("T", "t1", "t2")
	mk("V", "v1")
	e, err := query.NewExpr(
		query.JoinPred{LeftTable: "R", LeftAttr: "r1", RightTable: "S", RightAttr: "s1"},
		query.JoinPred{LeftTable: "R", LeftAttr: "r2", RightTable: "T", RightAttr: "t1"},
		query.JoinPred{LeftTable: "T", LeftAttr: "t2", RightTable: "V", RightAttr: "v1"},
	)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := query.NewSITSpec("R", "a", e)
	if err != nil {
		t.Fatal(err)
	}
	trueCard, err := exec.Cardinality(cat, e)
	if err != nil {
		t.Fatal(err)
	}
	b := newBuilder(t, cat)
	for _, m := range Methods() {
		s, err := b.Build(spec, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := s.Hist.Validate(); err != nil {
			t.Errorf("%v: invalid histogram: %v", m, err)
		}
		if s.EstimatedCard <= 0 {
			t.Errorf("%v: non-positive estimated cardinality", m)
		}
		// Uniform independent data: every technique should be within 2x.
		ratio := s.EstimatedCard / float64(trueCard)
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("%v: estimated card %v vs true %d (ratio %.2f)", m, s.EstimatedCard, trueCard, ratio)
		}
	}
	exact, _ := b.Build(spec, SweepExact)
	if math.Abs(exact.EstimatedCard-float64(trueCard)) > 1e-6*float64(trueCard+1) {
		t.Errorf("SweepExact card = %v, true %d", exact.EstimatedCard, trueCard)
	}
}

func TestCyclicExprRejected(t *testing.T) {
	cat := data.NewCatalog()
	for _, n := range []string{"R", "S", "T"} {
		cat.MustAdd(makeTable(t, n, []string{"x", "y"}, [][]int64{{1, 1}}))
	}
	e := query.MustNewExpr(
		query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "x"},
		query.JoinPred{LeftTable: "S", LeftAttr: "y", RightTable: "T", RightAttr: "y"},
		query.JoinPred{LeftTable: "T", LeftAttr: "x", RightTable: "R", RightAttr: "y"},
	)
	spec, err := query.NewSITSpec("R", "x", e)
	if err != nil {
		t.Fatal(err)
	}
	b := newBuilder(t, cat)
	if _, err := b.Build(spec, Sweep); err == nil {
		t.Error("cyclic generating query: want error")
	}
}

func TestCaching(t *testing.T) {
	cat := smallJoinCatalog(t)
	b := newBuilder(t, cat)
	spec := singleJoinSpec(t)
	s1, err := b.Build(spec, Sweep)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := b.Build(spec, Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("second Build did not hit the cache")
	}
	if _, ok := b.Cached(spec, Sweep); !ok {
		t.Error("Cached lookup failed")
	}
	if _, ok := b.Cached(spec, SweepFull); ok {
		t.Error("cache leaked across methods")
	}
}

func TestBuildGroupSharesScanAndMatchesIndividual(t *testing.T) {
	cat := smallJoinCatalog(t)
	b := newBuilder(t, cat)
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	specA, _ := query.NewSITSpec("S", "a", e)
	specY, _ := query.NewSITSpec("S", "y", e)
	group, err := b.BuildGroup([]query.SITSpec{specA, specY}, SweepFull)
	if err != nil {
		t.Fatal(err)
	}
	if len(group) != 2 {
		t.Fatalf("group size = %d", len(group))
	}
	b2 := newBuilder(t, cat)
	for i, spec := range []query.SITSpec{specA, specY} {
		solo, err := b2.Build(spec, SweepFull)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(group[i].Hist.Buckets, solo.Hist.Buckets) {
			t.Errorf("group[%d] != individual build", i)
		}
	}
	// Error cases.
	otherRoot := query.MustNewExpr(query.JoinPred{LeftTable: "S", LeftAttr: "y", RightTable: "R", RightAttr: "x"})
	specR, _ := query.NewSITSpec("R", "x", otherRoot)
	if _, err := b.BuildGroup([]query.SITSpec{specA, specR}, Sweep); err == nil {
		t.Error("mixed roots: want error")
	}
	base, _ := query.NewBaseExpr("S")
	baseSpec, _ := query.NewSITSpec("S", "a", base)
	if _, err := b.BuildGroup([]query.SITSpec{baseSpec}, Sweep); err == nil {
		t.Error("base spec in group: want error")
	}
	if out, err := b.BuildGroup(nil, Sweep); err != nil || out != nil {
		t.Errorf("empty group = %v, %v", out, err)
	}
}

func TestSampleSize(t *testing.T) {
	cat := smallJoinCatalog(t)
	b := newBuilder(t, cat)
	k, err := b.SampleSize("S")
	if err != nil {
		t.Fatal(err)
	}
	if k != b.cfg.MinSample { // 10% of 5 rows floors at MinSample
		t.Errorf("SampleSize = %d, want MinSample %d", k, b.cfg.MinSample)
	}
	if _, err := b.SampleSize("nope"); err == nil {
		t.Error("missing table: want error")
	}
}

// Property: SweepExact equals Materialize (bucket-for-bucket) on random
// single-join inputs.
func TestSweepExactEqualsMaterializeQuick(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		if len(xs) == 0 || len(ys) == 0 {
			return true
		}
		cat := data.NewCatalog()
		r := data.MustNewTable("R", "x")
		for _, v := range xs {
			r.AppendRow(int64(v % 16))
		}
		s := data.MustNewTable("S", "y", "a")
		for i, v := range ys {
			s.AppendRow(int64(v%16), int64(i%7))
		}
		cat.MustAdd(r)
		cat.MustAdd(s)
		b, err := NewBuilder(cat, DefaultConfig())
		if err != nil {
			return false
		}
		e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
		spec, err := query.NewSITSpec("S", "a", e)
		if err != nil {
			return false
		}
		exact, err := b.Build(spec, SweepExact)
		if err != nil {
			return false
		}
		mat, err := b.Build(spec, Materialize)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(exact.Hist.Buckets, mat.Hist.Buckets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSweepBeatsHistSITUnderCorrelation reproduces the qualitative claim of
// Figure 7: with skewed, correlated join attributes the Sweep family yields
// far better range estimates than histogram propagation.
func TestSweepBeatsHistSITUnderCorrelation(t *testing.T) {
	cfg := datagen.DefaultChainConfig()
	cfg.Rows = []int{1500, 1200, 1000, 800}
	cat, err := datagen.ChainDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := query.Chain([]string{"T1", "T2", "T3"}, []string{"jnext", "jnext"}, []string{"jprev", "jprev"})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := query.NewSITSpec("T3", "a", e)
	if err != nil {
		t.Fatal(err)
	}
	b := newBuilder(t, cat)
	truth, err := exec.AttrValues(cat, e, "T3", "a")
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.NewTruth(truth)
	rng := rand.New(rand.NewSource(99))
	queries, err := workload.RandomRangeQueries(rng, 1, int64(cfg.Domain)+int64(cfg.CorrNoise), 500)
	if err != nil {
		t.Fatal(err)
	}
	evalErr := func(s *SIT) float64 {
		res, err := workload.Evaluate(s, tr, queries)
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgRelError
	}
	sw, err := b.Build(spec, Sweep)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := b.Build(spec, HistSIT)
	if err != nil {
		t.Fatal(err)
	}
	sweepErr, histErr := evalErr(sw), evalErr(hs)
	t.Logf("avg relative error: Sweep=%.3f Hist-SIT=%.3f", sweepErr, histErr)
	if sweepErr >= histErr {
		t.Errorf("Sweep (%.3f) should beat Hist-SIT (%.3f) under correlation", sweepErr, histErr)
	}
}

func TestHistogramOracleRespectsConfigMethod(t *testing.T) {
	cat := smallJoinCatalog(t)
	cfg := DefaultConfig()
	cfg.HistMethod = histogram.EquiDepth
	b, err := NewBuilder(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := b.Build(singleJoinSpec(t), SweepFull)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Hist.Validate(); err != nil {
		t.Error(err)
	}
}

// TestBuildFailureInjection: structurally bad inputs surface as errors, not
// panics.
func TestBuildFailureInjection(t *testing.T) {
	cat := smallJoinCatalog(t)
	b := newBuilder(t, cat)
	// Join attribute missing from the table.
	badExpr := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "nope", RightTable: "S", RightAttr: "y"})
	badSpec, err := query.NewSITSpec("S", "a", badExpr)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		if _, err := b.Build(badSpec, m); err == nil {
			t.Errorf("%v: missing join attribute: want error", m)
		}
	}
	// Target attribute missing.
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	noAttr, err := query.NewSITSpec("S", "zz", e)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		if _, err := b.Build(noAttr, m); err == nil {
			t.Errorf("%v: missing target attribute: want error", m)
		}
	}
	// Table missing from the catalog.
	ghost := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "ZZ", RightAttr: "y"})
	ghostSpec, err := query.NewSITSpec("ZZ", "a", ghost)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(ghostSpec, Sweep); err == nil {
		t.Error("missing table: want error")
	}
	if _, err := b.BaseHistogram("R", "nope"); err == nil {
		t.Error("BaseHistogram on missing attr: want error")
	}
	if _, err := b.Index("ZZ", "x"); err == nil {
		t.Error("Index on missing table: want error")
	}
}

// TestBuildOnEmptyTables: empty inputs produce empty (but valid) SITs.
func TestBuildOnEmptyTables(t *testing.T) {
	cat := data.NewCatalog()
	cat.MustAdd(data.MustNewTable("R", "x"))
	cat.MustAdd(data.MustNewTable("S", "y", "a"))
	b := newBuilder(t, cat)
	spec := singleJoinSpec(t)
	for _, m := range Methods() {
		s, err := b.Build(spec, m)
		if err != nil {
			t.Fatalf("%v on empty tables: %v", m, err)
		}
		if s.EstimatedCard != 0 {
			t.Errorf("%v: empty tables gave cardinality %v", m, s.EstimatedCard)
		}
		if err := s.Hist.Validate(); err != nil {
			t.Errorf("%v: invalid empty histogram: %v", m, err)
		}
	}
}

// TestSweepMassMatchesSweepFull: Sweep and SweepFull consume the same oracle
// stream; sampling only affects the histogram's shape, never the streamed
// mass, so their estimated cardinalities must agree exactly.
func TestSweepMassMatchesSweepFull(t *testing.T) {
	cfg := datagen.DefaultChainConfig()
	cfg.Rows = []int{600, 500, 400, 300}
	cat, err := datagen.ChainDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, way := range []int{2, 3} {
		tables := make([]string, way)
		outs := make([]string, way-1)
		ins := make([]string, way-1)
		for i := range tables {
			tables[i] = datagen.ChainTableName(i + 1)
		}
		for i := range outs {
			outs[i] = "jnext"
			ins[i] = "jprev"
		}
		e, err := query.Chain(tables, outs, ins)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := query.NewSITSpec(tables[way-1], "a", e)
		if err != nil {
			t.Fatal(err)
		}
		// Fresh builders so Sweep's intermediates are sampled independently
		// of SweepFull's: only compare at way=2 where no intermediate SIT
		// exists; at way=3 the sampled intermediate histogram changes the
		// final oracle, so only rough agreement is expected.
		b1 := newBuilder(t, cat)
		sweep, err := b1.Build(spec, Sweep)
		if err != nil {
			t.Fatal(err)
		}
		b2 := newBuilder(t, cat)
		full, err := b2.Build(spec, SweepFull)
		if err != nil {
			t.Fatal(err)
		}
		if way == 2 {
			if math.Abs(sweep.EstimatedCard-full.EstimatedCard) > 1e-9 {
				t.Errorf("way=%d: Sweep mass %v != SweepFull mass %v",
					way, sweep.EstimatedCard, full.EstimatedCard)
			}
		} else {
			ratio := sweep.EstimatedCard / full.EstimatedCard
			if ratio < 0.5 || ratio > 2 {
				t.Errorf("way=%d: Sweep mass %v vs SweepFull mass %v (ratio %.2f)",
					way, sweep.EstimatedCard, full.EstimatedCard, ratio)
			}
		}
	}
}
