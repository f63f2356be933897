// Facade tests: exercise the public API end to end, the way a downstream
// user would. The implementation details are tested in internal/...; these
// tests pin the public surface and the cross-package user journeys.
package sits_test

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"github.com/sitstats/sits"
)

func TestParseMethod(t *testing.T) {
	cases := map[string]sits.Method{
		"histsit":     sits.HistSIT,
		"Hist-SIT":    sits.HistSIT,
		"sweep":       sits.Sweep,
		"SWEEPINDEX":  sits.SweepIndex,
		"sweepfull":   sits.SweepFull,
		"sweepexact":  sits.SweepExact,
		"materialize": sits.Materialize,
	}
	for name, want := range cases {
		got, err := sits.ParseMethod(name)
		if err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v", name, got, err)
		}
	}
	for _, m := range append(sits.Methods(), sits.Materialize) {
		if got, err := sits.ParseMethod(m.String()); err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := sits.ParseMethod("bogus"); err == nil {
		t.Error("unknown method: want error")
	}
}

func TestParsePredicates(t *testing.T) {
	preds, err := sits.ParsePredicates("T2.a:1:100, T2.b:5:6")
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 || preds[0].Table != "T2" || preds[0].Attr != "a" || preds[0].Lo != 1 || preds[0].Hi != 100 {
		t.Errorf("preds = %+v", preds)
	}
	if got, err := sits.ParsePredicates("  "); err != nil || got != nil {
		t.Errorf("empty preds = %v, %v", got, err)
	}
	for _, bad := range []string{"T2.a:1", "noattr:1:2", "T2.a:x:2", "T2.a:1:y", "T2.:1:2"} {
		if _, err := sits.ParsePredicates(bad); err == nil {
			t.Errorf("ParsePredicates(%q): want error", bad)
		}
	}
}

func smallChain(t *testing.T) *sits.Catalog {
	t.Helper()
	cfg := sits.DefaultChainConfig()
	cfg.Rows = []int{600, 500, 400, 300}
	cat, err := sits.GenerateChainDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestFacadeBuildAndEstimate(t *testing.T) {
	cat := smallChain(t)
	builder, err := sits.NewBuilder(cat, sits.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sits.ParseSIT("T2.a | T1 JOIN T2 ON T1.jnext = T2.jprev")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sits.Methods() {
		s, err := builder.Build(spec, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if s.EstimatedCard <= 0 {
			t.Errorf("%v: non-positive cardinality", m)
		}
		if got := s.EstimateRange(math.MinInt32, math.MaxInt32); math.Abs(got-s.Hist.TotalFreq()) > 1e-6 {
			t.Errorf("%v: full-range estimate %v != total %v", m, got, s.Hist.TotalFreq())
		}
	}
}

func TestFacadeGroundTruthAndAccuracy(t *testing.T) {
	cat := smallChain(t)
	builder, err := sits.NewBuilder(cat, sits.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sits.ParseSIT("T2.a | T1 JOIN T2 ON T1.jnext = T2.jprev")
	if err != nil {
		t.Fatal(err)
	}
	truth, err := sits.GroundTruth(cat, spec.Expr, spec.Table, spec.Attr)
	if err != nil {
		t.Fatal(err)
	}
	card, err := sits.TrueCardinality(cat, spec.Expr)
	if err != nil {
		t.Fatal(err)
	}
	if int64(truth.Len()) != card {
		t.Errorf("GroundTruth length %d != TrueCardinality %d", truth.Len(), card)
	}
	lo, _ := truth.Min()
	hi, _ := truth.Max()
	qs, err := sits.RandomRangeQueries(3, lo, hi, 200)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := builder.Build(spec, sits.Materialize)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sits.EvaluateAccuracy(exact, truth, qs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 200 {
		t.Errorf("Queries = %d", res.Queries)
	}
	sweep, err := builder.Build(spec, sits.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := sits.EvaluateAccuracy(sweep, truth, qs)
	if err != nil {
		t.Fatal(err)
	}
	if sres.AvgRelError < res.AvgRelError-1e-9 && res.AvgRelError > 0.01 {
		t.Logf("sweep (%.4f) beat materialize (%.4f) on this seed — acceptable", sres.AvgRelError, res.AvgRelError)
	}
}

func TestFacadeSchedulingJourney(t *testing.T) {
	cat := smallChain(t)
	builder, err := sits.NewBuilder(cat, sits.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{
		"T2.a | T1 JOIN T2 ON T1.jnext = T2.jprev",
		"T3.a | T1 JOIN T2 ON T1.jnext = T2.jprev JOIN T3 ON T2.jnext = T3.jprev",
	}
	var tasks []sits.SITTask
	for _, s := range specs {
		spec, err := sits.ParseSIT(s)
		if err != nil {
			t.Fatal(err)
		}
		task, err := sits.NewSITTask(spec)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	env := sits.ScheduleEnv{Cost: map[string]float64{}, SampleSize: map[string]float64{}, Memory: 200}
	for _, n := range cat.Names() {
		tab, _ := cat.Table(n)
		env.Cost[n] = float64(tab.NumRows()) / 1000
		env.SampleSize[n] = 0.1 * float64(tab.NumRows())
	}
	abstract := sits.ScheduleTasks(tasks)
	opt, _, err := sits.OptSchedule(abstract, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := sits.ValidateSchedule(opt, abstract, env); err != nil {
		t.Fatal(err)
	}
	greedy, _, err := sits.GreedySchedule(abstract, env)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Cost < opt.Cost-1e-9 {
		t.Errorf("greedy (%v) beat opt (%v)", greedy.Cost, opt.Cost)
	}
	hybrid, _, err := sits.HybridSchedule(abstract, env, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.Cost < opt.Cost-1e-9 {
		t.Errorf("hybrid (%v) beat opt (%v)", hybrid.Cost, opt.Cost)
	}
	naive, err := sits.NaiveSchedule(abstract, env)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Cost < opt.Cost-1e-9 {
		t.Errorf("naive (%v) beat opt (%v)", naive.Cost, opt.Cost)
	}
	built, err := sits.ExecuteSchedule(opt, tasks, builder, sits.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != 2 || built[0] == nil || built[1] == nil {
		t.Fatalf("built = %v", built)
	}
}

func TestFacadeEstimatorJourney(t *testing.T) {
	cat := smallChain(t)
	builder, err := sits.NewBuilder(cat, sits.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	est, err := sits.NewEstimator(builder)
	if err != nil {
		t.Fatal(err)
	}
	expr, err := sits.ParseExpr("T1 JOIN T2 ON T1.jnext = T2.jprev")
	if err != nil {
		t.Fatal(err)
	}
	q := sits.SPJQuery{Expr: expr, Preds: []sits.Predicate{{Table: "T2", Attr: "a", Lo: 1, Hi: 500}}}
	before, err := est.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := sits.NewSITSpec("T2", "a", expr)
	s, err := builder.Build(spec, sits.SweepFull)
	if err != nil {
		t.Fatal(err)
	}
	if err := est.Register(s); err != nil {
		t.Fatal(err)
	}
	after, err := est.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Sources[0].Tables <= before.Sources[0].Tables {
		t.Errorf("registered SIT not used: before %+v after %+v", before.Sources[0], after.Sources[0])
	}
}

func TestFacadeAdvisorJourney(t *testing.T) {
	cat := smallChain(t)
	builder, err := sits.NewBuilder(cat, sits.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	adv, err := sits.NewAdvisor(builder, sits.DefaultAdvisorConfig())
	if err != nil {
		t.Fatal(err)
	}
	expr, err := sits.ParseExpr("T1 JOIN T2 ON T1.jnext = T2.jprev")
	if err != nil {
		t.Fatal(err)
	}
	w := sits.Workload{{Expr: expr, Preds: []sits.Predicate{{Table: "T2", Attr: "a", Lo: 1, Hi: 100}}}}
	cands, err := adv.Candidates(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	sel := sits.SelectCandidates(cands, 1e9)
	if len(sel) != len(cands) {
		t.Errorf("unbounded budget dropped candidates")
	}
	tasks, direct := sits.CreationTasks(sel)
	if len(tasks)+len(direct) != len(sel) {
		t.Errorf("tasks %d + direct %d != selected %d", len(tasks), len(direct), len(sel))
	}
}

func TestFacadeCSVAndHistogram(t *testing.T) {
	cat := smallChain(t)
	tab, err := cat.Table("T1")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "T1.csv")
	if err := sits.WriteCSVFile(tab, path); err != nil {
		t.Fatal(err)
	}
	back, err := sits.ReadCSVFile("T1", path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tab.NumRows() {
		t.Errorf("rows = %d, want %d", back.NumRows(), tab.NumRows())
	}
	vals, err := back.Column("a")
	if err != nil {
		t.Fatal(err)
	}
	h, err := sits.BuildHistogram(vals, 50, sits.MaxDiffArea)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.TotalFreq()-float64(len(vals))) > 1e-6 {
		t.Errorf("histogram total = %v", h.TotalFreq())
	}
}
