package sched

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// example6 builds the paper's Example 6 instance: three dependency sequences
// (T,S,R), (S,R), (U,R) with Cost(R)=Cost(S)=10 and Cost(T)=Cost(U)=20.
func example6() ([]Task, Env) {
	tasks := []Task{
		{ID: "SIT(R.b|R-S-T-V)", Seq: []string{"T", "S", "R"}},
		{ID: "SIT(R.a|R-S-T) path R-S", Seq: []string{"S", "R"}},
		{ID: "SIT(R.a|R-U-V) path R-U", Seq: []string{"U", "R"}},
	}
	env := Env{
		Cost:       map[string]float64{"R": 10, "S": 10, "T": 20, "U": 20},
		SampleSize: map[string]float64{"R": 10000, "S": 10000, "T": 10000, "U": 10000},
		Memory:     50000,
	}
	return tasks, env
}

func TestExample6Optimal(t *testing.T) {
	tasks, env := example6()
	s, stats, err := Opt(tasks, env)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost != 60 {
		t.Errorf("optimal cost = %v, want 60 (paper Example 6)", s.Cost)
	}
	if err := Validate(s, tasks, env); err != nil {
		t.Error(err)
	}
	if stats.Expanded == 0 {
		t.Error("no states expanded")
	}
	// Four scans: T/U in some order, then S (shared by tasks 0 and 1), then R
	// (shared by all three).
	if len(s.Steps) != 4 {
		t.Errorf("steps = %v", s.Steps)
	}
	last := s.Steps[len(s.Steps)-1]
	if last.Table != "R" || len(last.Advance) != 3 {
		t.Errorf("final step = %+v, want shared scan of R by all 3 tasks", last)
	}
}

func TestExample6MemoryBound(t *testing.T) {
	tasks, env := example6()
	// Only one sample fits at a time: no sharing possible anywhere, so the
	// optimum degenerates to the Naive cost 40+20+30 = 90.
	env.Memory = 10000
	s, _, err := Opt(tasks, env)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost != 90 {
		t.Errorf("memory-bound optimal = %v, want 90", s.Cost)
	}
	if err := Validate(s, tasks, env); err != nil {
		t.Error(err)
	}
	// Two samples fit: S and R scans can each serve two tasks. The best plan
	// shares S across tasks 0,1 and R across two of the three: 20+20+10+10+10 = 70.
	env.Memory = 20000
	s, _, err = Opt(tasks, env)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost != 70 {
		t.Errorf("memory=2 samples optimal = %v, want 70", s.Cost)
	}
	if err := Validate(s, tasks, env); err != nil {
		t.Error(err)
	}
}

func TestNaive(t *testing.T) {
	tasks, env := example6()
	s, err := Naive(tasks, env)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost != 90 {
		t.Errorf("naive cost = %v, want 90", s.Cost)
	}
	if err := Validate(s, tasks, env); err != nil {
		t.Error(err)
	}
}

func TestEnvValidation(t *testing.T) {
	env := Env{
		Cost:       map[string]float64{"R": 10},
		SampleSize: map[string]float64{"R": 100},
		Memory:     1000,
	}
	if _, _, err := Opt([]Task{{ID: "t", Seq: []string{"R", "S"}}}, env); err == nil {
		t.Error("missing table cost: want error")
	}
	if _, _, err := Opt([]Task{{ID: "t", Seq: nil}}, env); err == nil {
		t.Error("empty sequence: want error")
	}
	big := Env{
		Cost:       map[string]float64{"R": 10},
		SampleSize: map[string]float64{"R": 5000},
		Memory:     1000,
	}
	if _, _, err := Opt([]Task{{ID: "t", Seq: []string{"R"}}}, big); err == nil {
		t.Error("sample larger than memory: want error")
	}
	zero := Env{
		Cost:       map[string]float64{"R": 0},
		SampleSize: map[string]float64{"R": 10},
	}
	if _, _, err := Opt([]Task{{ID: "t", Seq: []string{"R"}}}, zero); err == nil {
		t.Error("zero cost: want error")
	}
}

func TestEmptyInstance(t *testing.T) {
	s, _, err := Opt(nil, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Steps) != 0 || s.Cost != 0 {
		t.Errorf("empty instance schedule = %+v", s)
	}
}

// randomInstance generates a small random scheduling instance.
func randomInstance(rng *rand.Rand, numTasks, numTables, maxLen int, memFactor float64) ([]Task, Env) {
	tables := make([]string, numTables)
	env := Env{Cost: map[string]float64{}, SampleSize: map[string]float64{}}
	maxSample := 0.0
	for i := range tables {
		tables[i] = string(rune('A' + i))
		env.Cost[tables[i]] = float64(rng.Intn(20) + 1)
		ss := float64(rng.Intn(50) + 10)
		env.SampleSize[tables[i]] = ss
		if ss > maxSample {
			maxSample = ss
		}
	}
	env.Memory = maxSample * memFactor
	tasks := make([]Task, numTasks)
	for i := range tasks {
		l := rng.Intn(maxLen-1) + 2
		if l > numTables {
			l = numTables
		}
		perm := rng.Perm(numTables)
		seq := make([]string, l)
		for j := 0; j < l; j++ {
			seq[j] = tables[perm[j]]
		}
		tasks[i] = Task{ID: string(rune('0' + i)), Seq: seq}
	}
	return tasks, env
}

// TestOptMatchesBruteForce: the dominance-pruned A* must agree with the
// exhaustive all-subsets Dijkstra on random small instances, with and without
// binding memory.
func TestOptMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		memFactor := []float64{1.0, 1.5, 3, 100}[trial%4]
		tasks, env := randomInstance(rng, 3, 4, 3, memFactor)
		opt, _, err := Opt(tasks, env)
		if err != nil {
			t.Fatal(err)
		}
		bf, err := BruteForce(tasks, env)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(opt.Cost-bf.Cost) > 1e-9 {
			t.Fatalf("trial %d: Opt %v != BruteForce %v (tasks %v, M=%v)",
				trial, opt.Cost, bf.Cost, tasks, env.Memory)
		}
		if err := Validate(opt, tasks, env); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllSubsetsSameOptimum: the paper-literal successor generation reaches
// the same optimum as the pruned default.
func TestAllSubsetsSameOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 15; trial++ {
		tasks, env := randomInstance(rng, 3, 4, 3, 1.5)
		pruned, _, err := Opt(tasks, env)
		if err != nil {
			t.Fatal(err)
		}
		literal, _, err := OptWith(tasks, env, Options{AllSubsets: true})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pruned.Cost-literal.Cost) > 1e-9 {
			t.Fatalf("trial %d: pruned %v != all-subsets %v", trial, pruned.Cost, literal.Cost)
		}
	}
}

// TestHeuristicAdmissible: A* with the heuristic equals Dijkstra.
func TestHeuristicAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		tasks, env := randomInstance(rng, 3, 4, 4, 2)
		astar, sa, err := Opt(tasks, env)
		if err != nil {
			t.Fatal(err)
		}
		dij, sd, err := OptWith(tasks, env, Options{DisableHeuristic: true})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(astar.Cost-dij.Cost) > 1e-9 {
			t.Fatalf("trial %d: A* %v != Dijkstra %v", trial, astar.Cost, dij.Cost)
		}
		if sa.Expanded > sd.Expanded {
			t.Errorf("trial %d: heuristic expanded more (%d) than Dijkstra (%d)", trial, sa.Expanded, sd.Expanded)
		}
	}
}

// TestGreedyAndHybrid: both produce valid schedules with cost between the
// optimum and Naive.
func TestGreedyAndHybrid(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		tasks, env := randomInstance(rng, 4, 5, 4, 2)
		opt, _, err := Opt(tasks, env)
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := Greedy(tasks, env)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(g, tasks, env); err != nil {
			t.Fatalf("greedy schedule invalid: %v", err)
		}
		if g.Cost < opt.Cost-1e-9 {
			t.Fatalf("greedy (%v) beat the optimum (%v)?", g.Cost, opt.Cost)
		}
		naive, err := Naive(tasks, env)
		if err != nil {
			t.Fatal(err)
		}
		if g.Cost > naive.Cost+1e-9 {
			t.Errorf("greedy (%v) worse than naive (%v)", g.Cost, naive.Cost)
		}
		h, _, err := Hybrid(tasks, env, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(h, tasks, env); err != nil {
			t.Fatalf("hybrid schedule invalid: %v", err)
		}
		if h.Cost < opt.Cost-1e-9 {
			t.Fatalf("hybrid (%v) beat the optimum (%v)?", h.Cost, opt.Cost)
		}
	}
	if _, _, err := Hybrid(nil, Env{}, 0); err == nil {
		t.Error("non-positive hybrid budget: want error")
	}
}

// TestHybridSwitches: with a tiny budget hybrid must switch to greedy mode on
// a big instance and still return a valid schedule.
func TestHybridSwitches(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tasks, env := randomInstance(rng, 10, 8, 6, 1.2)
	h, stats, err := Hybrid(tasks, env, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(h, tasks, env); err != nil {
		t.Fatal(err)
	}
	if !stats.SwitchedToGreedy {
		t.Log("hybrid finished within a microsecond; switch not exercised (machine too fast)")
	}
}

func TestValidateCatchesBadSchedules(t *testing.T) {
	tasks, env := example6()
	good, _, err := Opt(tasks, env)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong cost.
	bad := good
	bad.Cost += 5
	if err := Validate(bad, tasks, env); err == nil {
		t.Error("wrong cost: want error")
	}
	// Missing step.
	bad = Schedule{Steps: good.Steps[:len(good.Steps)-1], Cost: good.Cost - 10}
	if err := Validate(bad, tasks, env); err == nil {
		t.Error("incomplete schedule: want error")
	}
	// Step advancing nothing.
	bad = Schedule{Steps: append([]Step{{Table: "T", Advance: nil}}, good.Steps...), Cost: good.Cost + 20}
	if err := Validate(bad, tasks, env); err == nil {
		t.Error("empty advance: want error")
	}
	// Memory violation.
	env2 := env
	env2.Memory = 10000
	if err := Validate(good, tasks, env2); err == nil {
		t.Error("memory violation: want error")
	}
	// Wrong table for a task.
	bad = Schedule{Steps: []Step{{Table: "R", Advance: []int{0}}}, Cost: 10}
	if err := Validate(bad, tasks, env); err == nil {
		t.Error("out-of-order advance: want error")
	}
	// Duplicate advance.
	bad = Schedule{Steps: []Step{{Table: "T", Advance: []int{0, 0}}}, Cost: 20}
	if err := Validate(bad, tasks, env); err == nil {
		t.Error("duplicate advance: want error")
	}
	// Unknown task index.
	bad = Schedule{Steps: []Step{{Table: "T", Advance: []int{9}}}, Cost: 20}
	if err := Validate(bad, tasks, env); err == nil {
		t.Error("unknown task: want error")
	}
}

func TestExpansionBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tasks, env := randomInstance(rng, 8, 8, 6, 1.2)
	if _, _, err := OptWith(tasks, env, Options{MaxExpansions: 3}); err == nil {
		t.Error("tiny expansion budget: want error")
	}
}

// TestSharingBeatsNaive: on instances with heavy overlap the optimal schedule
// must be strictly cheaper than Naive (the premise of Section 4).
func TestSharingBeatsNaive(t *testing.T) {
	tasks := []Task{
		{ID: "1", Seq: []string{"S", "R"}},
		{ID: "2", Seq: []string{"S", "R"}},
		{ID: "3", Seq: []string{"S", "R"}},
	}
	env := Env{
		Cost:       map[string]float64{"R": 10, "S": 10},
		SampleSize: map[string]float64{"R": 1, "S": 1},
		Memory:     10,
	}
	opt, _, err := Opt(tasks, env)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cost != 20 {
		t.Errorf("fully shared cost = %v, want 20", opt.Cost)
	}
	if naive, err := Naive(tasks, env); err != nil || naive.Cost != 60 {
		t.Errorf("naive = %v (%v), want 60", naive.Cost, err)
	}
}

func TestScheduleString(t *testing.T) {
	s := Schedule{Cost: 30, Steps: []Step{
		{Table: "S", Advance: []int{0, 1}},
		{Table: "R", Advance: []int{0}},
	}}
	got := s.String()
	for _, want := range []string{"cost=30", "scan S -> 0, 1", "scan R -> 0"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
}

func TestEnvFromSizes(t *testing.T) {
	env, err := EnvFromSizes(map[string]int{"R": 50000, "S": 100}, 1.0/1000, 0.1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if env.Cost["R"] != 50 || env.SampleSize["R"] != 5000 {
		t.Errorf("R cost/sample = %v/%v", env.Cost["R"], env.SampleSize["R"])
	}
	// Floors kick in for tiny tables.
	if env.Cost["S"] != 1 {
		t.Errorf("S cost = %v, want floor 1", env.Cost["S"])
	}
	if env.SampleSize["S"] != 10 {
		t.Errorf("S sample = %v, want 10", env.SampleSize["S"])
	}
	if env.Memory != 5000 {
		t.Errorf("memory = %v", env.Memory)
	}
	if _, err := EnvFromSizes(nil, 0, 0.1, 0); err == nil {
		t.Error("zero cost per row: want error")
	}
	if _, err := EnvFromSizes(map[string]int{"R": -1}, 0.001, 0.1, 0); err == nil {
		t.Error("negative size: want error")
	}
}
