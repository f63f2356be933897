package experiments

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/sitstats/sits/internal/sit"
)

// smallFig7Config shrinks the paper's setting so the test runs in seconds
// while preserving the qualitative shapes.
func smallFig7Config() Fig7Config {
	cfg := DefaultFig7Config()
	cfg.Chain.Rows = []int{500, 400, 300, 300}
	cfg.Chain.Domain = 1500
	cfg.Buckets = []int{50, 100}
	cfg.Queries = 300
	return cfg
}

func TestFigure7Shapes(t *testing.T) {
	res, err := RunFigure7(smallFig7Config())
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(res.Config.JoinWays) * len(res.Config.Buckets) * len(res.Config.Methods)
	if len(res.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(res.Cells), wantCells)
	}
	for _, way := range []int{3, 4} {
		for _, nb := range res.Config.Buckets {
			hist, ok1 := res.Cell(way, nb, sit.HistSIT)
			sweep, ok2 := res.Cell(way, nb, sit.Sweep)
			exact, ok3 := res.Cell(way, nb, sit.SweepExact)
			if !ok1 || !ok2 || !ok3 {
				t.Fatalf("missing cells for way=%d nb=%d", way, nb)
			}
			// The paper's headline: Hist-SIT is much worse than the Sweep
			// family under skewed, correlated join attributes.
			if hist.Accuracy.AvgRelError <= sweep.Accuracy.AvgRelError {
				t.Errorf("way=%d nb=%d: Hist-SIT (%.3f) should be worse than Sweep (%.3f)",
					way, nb, hist.Accuracy.AvgRelError, sweep.Accuracy.AvgRelError)
			}
			if hist.Accuracy.AvgRelError <= exact.Accuracy.AvgRelError {
				t.Errorf("way=%d nb=%d: Hist-SIT (%.3f) should be worse than SweepExact (%.3f)",
					way, nb, hist.Accuracy.AvgRelError, exact.Accuracy.AvgRelError)
			}
			// Dropping the containment and the sampling assumption together
			// leaves only bucketing error: SweepExact is the most accurate of
			// the Sweep family on the multi-join chains.
			for _, m := range []sit.Method{sit.Sweep, sit.SweepIndex, sit.SweepFull} {
				other, ok := res.Cell(way, nb, m)
				if !ok {
					t.Fatalf("missing %v cell for way=%d nb=%d", m, way, nb)
				}
				if exact.Accuracy.AvgRelError > other.Accuracy.AvgRelError {
					t.Errorf("way=%d nb=%d: SweepExact (%.3f) should be at least as accurate as %v (%.3f)",
						way, nb, exact.Accuracy.AvgRelError, m, other.Accuracy.AvgRelError)
				}
			}
			// SweepExact knows the exact cardinality.
			if exact.EstimatedCard != exact.TrueCard {
				t.Errorf("way=%d nb=%d: SweepExact card %v != true %v",
					way, nb, exact.EstimatedCard, exact.TrueCard)
			}
		}
	}
	// Error grows with join width for Hist-SIT (error propagation through
	// more joins).
	h2, _ := res.Cell(2, 100, sit.HistSIT)
	h4, _ := res.Cell(4, 100, sit.HistSIT)
	if h4.Accuracy.AvgRelError <= h2.Accuracy.AvgRelError {
		t.Errorf("Hist-SIT error should grow with join width: 2-way %.3f vs 4-way %.3f",
			h2.Accuracy.AvgRelError, h4.Accuracy.AvgRelError)
	}
	var buf bytes.Buffer
	if err := PrintFigure7(&buf, res, "Figure 7"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Hist-SIT") || !strings.Contains(buf.String(), "4-way") {
		t.Errorf("printed output incomplete:\n%s", buf.String())
	}
	if err := PrintFigure7BuildTimes(&buf, res); err != nil {
		t.Fatal(err)
	}
}

func TestUniformExperiment(t *testing.T) {
	cfg := UniformConfig()
	cfg.Queries = 300
	cfg.JoinWays = []int{2, 3}
	res, err := RunFigure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Independence holds: every technique should be accurate (the paper
	// reports < 2% on its larger tables; allow slack for the scaled-down
	// data set, where narrow range queries have small true counts and the
	// chain techniques sample twice). Medians are tighter than means because
	// the residual error concentrates in a few narrow queries.
	for _, c := range res.Cells {
		if c.Accuracy.AvgRelError > 0.20 {
			t.Errorf("way=%d %v: uniform-data avg error %.3f too large", c.Way, c.Method, c.Accuracy.AvgRelError)
		}
		if c.Accuracy.MedianRelError > 0.10 {
			t.Errorf("way=%d %v: uniform-data median error %.3f too large", c.Way, c.Method, c.Accuracy.MedianRelError)
		}
	}
	// The sampling-based techniques pay a small accuracy price relative to
	// the exact ones (the paper's "around 2% versus 1%").
	for _, way := range cfg.JoinWays {
		sweep, _ := res.Cell(way, 100, sit.Sweep)
		exact, _ := res.Cell(way, 100, sit.SweepExact)
		if sweep.Accuracy.AvgRelError < exact.Accuracy.AvgRelError {
			t.Logf("way=%d: Sweep (%.4f) happened to beat SweepExact (%.4f) on this seed",
				way, sweep.Accuracy.AvgRelError, exact.Accuracy.AvgRelError)
		}
	}
}

func TestFig7ConfigValidation(t *testing.T) {
	cfg := smallFig7Config()
	cfg.Queries = 0
	if _, err := RunFigure7(cfg); err == nil {
		t.Error("zero queries: want error")
	}
	cfg = smallFig7Config()
	cfg.JoinWays = []int{9}
	if _, err := RunFigure7(cfg); err == nil {
		t.Error("join width beyond table count: want error")
	}
	if _, err := chainSpec(1); err == nil {
		t.Error("1-way chain: want error")
	}
}

func TestRandomInstanceShape(t *testing.T) {
	cfg := DefaultSchedConfig()
	rng := rand.New(rand.NewSource(1))
	tasks, env, err := RandomInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != cfg.NumSITs {
		t.Fatalf("tasks = %d", len(tasks))
	}
	totalCost := 0.0
	for _, c := range env.Cost {
		totalCost += c
	}
	// Cost(T) = |T|/1000 and sizes sum to one million: total ~1000 units.
	if totalCost < 900 || totalCost > 1100 {
		t.Errorf("sum of costs = %v, want ~1000", totalCost)
	}
	for _, task := range tasks {
		if len(task.Seq) < 2 || len(task.Seq) > cfg.LenSITs {
			t.Errorf("task %q length %d out of [2,%d]", task.ID, len(task.Seq), cfg.LenSITs)
		}
		seen := map[string]bool{}
		for _, tab := range task.Seq {
			if seen[tab] {
				t.Errorf("task %q repeats table %q", task.ID, tab)
			}
			seen[tab] = true
		}
	}
	if MinFeasibleMemory(env) >= cfg.Memory {
		t.Errorf("default memory %v should exceed the largest sample %v", cfg.Memory, MinFeasibleMemory(env))
	}
	bad := cfg
	bad.NumTables = 1
	if _, _, err := RandomInstance(rng, bad); err == nil {
		t.Error("one table: want error")
	}
}

func TestFigure8Shape(t *testing.T) {
	cfg := DefaultSchedConfig()
	cfg.Instances = 8
	cfg.HybridBudget = 200 * time.Millisecond
	points, err := RunFigure8(cfg, []int{4, 8, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		naive := p.Techniques[TechNaive]
		opt := p.Techniques[TechOpt]
		greedy := p.Techniques[TechGreedy]
		hybrid := p.Techniques[TechHybrid]
		if opt.Failures > 0 {
			t.Fatalf("numSITs=%g: Opt failed on %d instances", p.X, opt.Failures)
		}
		if naive.AvgCost < opt.AvgCost-1e-6 {
			t.Errorf("numSITs=%g: Naive (%v) cheaper than Opt (%v)?", p.X, naive.AvgCost, opt.AvgCost)
		}
		if greedy.AvgCost < opt.AvgCost-1e-6 {
			t.Errorf("numSITs=%g: Greedy (%v) beat Opt (%v)?", p.X, greedy.AvgCost, opt.AvgCost)
		}
		if hybrid.AvgCost < opt.AvgCost-1e-6 {
			t.Errorf("numSITs=%g: Hybrid (%v) beat Opt (%v)?", p.X, hybrid.AvgCost, opt.AvgCost)
		}
		// The heuristics order on average as Figure 8 reports: Hybrid <=
		// Greedy <= Naive. Hybrid's switch from A* to greedy completion is
		// wall-clock (HybridBudget), so where it fires depends on the host:
		// over budgets from 1us to 200ms the worst excess over Greedy
		// measured on this config was 1.1%, hence the 2% slack.
		if hybrid.AvgCost > 1.02*greedy.AvgCost {
			t.Errorf("numSITs=%g: Hybrid (%v) dearer than Greedy (%v)", p.X, hybrid.AvgCost, greedy.AvgCost)
		}
		if greedy.AvgCost > naive.AvgCost+1e-6 {
			t.Errorf("numSITs=%g: Greedy (%v) dearer than Naive (%v)", p.X, greedy.AvgCost, naive.AvgCost)
		}
		// Sharing must actually pay off at the paper's overlap levels.
		if naive.AvgCost <= opt.AvgCost {
			t.Errorf("numSITs=%g: no sharing benefit (Naive %v vs Opt %v)", p.X, naive.AvgCost, opt.AvgCost)
		}
	}
	var buf bytes.Buffer
	if err := PrintSchedSweep(&buf, points, "numSITs", "Figure 8"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Greedy") {
		t.Errorf("printed output incomplete:\n%s", buf.String())
	}
}

func TestFigure9Shape(t *testing.T) {
	cfg := DefaultSchedConfig()
	cfg.Instances = 8
	cfg.HybridBudget = 200 * time.Millisecond
	points, err := RunFigure9(cfg, []int{5, 20, 40})
	if err != nil {
		t.Fatal(err)
	}
	// Sharing benefit (Naive/Opt ratio) should shrink as tables grow and
	// overlap vanishes.
	ratio := func(p SweepPoint) float64 {
		return p.Techniques[TechNaive].AvgCost / p.Techniques[TechOpt].AvgCost
	}
	if ratio(points[0]) <= ratio(points[len(points)-1]) {
		t.Errorf("sharing benefit should shrink with more tables: nt=5 ratio %.3f vs nt=40 ratio %.3f",
			ratio(points[0]), ratio(points[len(points)-1]))
	}
}

func TestFigure10Shape(t *testing.T) {
	cfg := DefaultSchedConfig()
	cfg.Instances = 8
	cfg.HybridBudget = 200 * time.Millisecond
	// Determine the feasibility floor for this configuration's (fixed) sizes.
	rng := rand.New(rand.NewSource(cfg.Seed))
	_, env, err := RandomInstance(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	floor := MinFeasibleMemory(env)
	memories := []float64{floor * 1.05, floor * 2, floor * 4, floor * 10}
	points, err := RunFigure10(cfg, memories)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		prev := points[i-1].Techniques[TechOpt].AvgCost
		cur := points[i].Techniques[TechOpt].AvgCost
		if cur > prev+1e-6 {
			t.Errorf("Opt cost should not increase with memory: M=%g cost %v -> M=%g cost %v",
				points[i-1].X, prev, points[i].X, cur)
		}
		// Naive ignores memory entirely.
		if points[i].Techniques[TechNaive].AvgCost != points[0].Techniques[TechNaive].AvgCost {
			t.Errorf("Naive cost changed with memory")
		}
	}
	// With ample memory sharing must beat Naive.
	last := points[len(points)-1]
	if last.Techniques[TechNaive].AvgCost <= last.Techniques[TechOpt].AvgCost {
		t.Errorf("unbounded memory: Naive (%v) should exceed Opt (%v)",
			last.Techniques[TechNaive].AvgCost, last.Techniques[TechOpt].AvgCost)
	}
}

func TestUnknownTechnique(t *testing.T) {
	cfg := DefaultSchedConfig()
	cfg.Instances = 1
	_, err := SchedSweep(cfg, []float64{4},
		func(c *SchedConfig, x float64) { c.NumSITs = int(x) },
		[]TechName{TechName("Bogus")})
	if err != nil {
		t.Fatal(err)
	}
	// Unknown techniques surface as failures, not sweep-level errors.
}

func TestAcyclicExperiment(t *testing.T) {
	cfg := DefaultAcyclicConfig()
	cfg.Star.FactRows = 1500
	cfg.Star.DimRows = []int{400, 300}
	cfg.Star.SubDimRows = 80
	cfg.Queries = 300
	cells, err := RunAcyclic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(cfg.Methods) {
		t.Fatalf("cells = %d", len(cells))
	}
	var hist, exact AcyclicCell
	for _, c := range cells {
		if c.Method == sit.HistSIT {
			hist = c
		}
		if c.Method == sit.SweepExact {
			exact = c
		}
	}
	if exact.EstimatedCard != exact.TrueCard {
		t.Errorf("SweepExact card %v != true %v", exact.EstimatedCard, exact.TrueCard)
	}
	if hist.Accuracy.MedianRelError <= exact.Accuracy.MedianRelError {
		t.Errorf("Hist-SIT (%.3f) should be worse than SweepExact (%.3f) on correlated snowflake",
			hist.Accuracy.MedianRelError, exact.Accuracy.MedianRelError)
	}
	var buf bytes.Buffer
	if err := PrintAcyclic(&buf, cfg, cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SweepExact") {
		t.Error("print output incomplete")
	}
}

func TestHistogramAblation(t *testing.T) {
	cfg := DefaultAblationConfig()
	cfg.Chain.Rows = []int{500, 400, 300, 300}
	cfg.Chain.Domain = 1500
	cfg.Queries = 200
	cells, err := RunHistogramAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(cfg.HistMethods) {
		t.Fatalf("cells = %d", len(cells))
	}
	byMethod := map[string]AblationCell{}
	for _, c := range cells {
		byMethod[c.HistMethod.String()] = c
	}
	// V-Optimal must not lose to equi-width (the weakest construction).
	if byMethod["v-optimal"].Accuracy.MedianRelError > byMethod["equiwidth"].Accuracy.MedianRelError {
		t.Errorf("v-optimal (%.3f) worse than equiwidth (%.3f)?",
			byMethod["v-optimal"].Accuracy.MedianRelError, byMethod["equiwidth"].Accuracy.MedianRelError)
	}
	var buf bytes.Buffer
	if err := PrintHistogramAblation(&buf, cfg, cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "v-optimal") {
		t.Error("print output incomplete")
	}
}
