package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/sitstats/sits/internal/datagen"
	"github.com/sitstats/sits/internal/sched"
)

// SchedConfig parameterizes the multi-SIT scheduling experiments of Section
// 5.2. The paper's defaults: numSITs=10, lenSITs=5, nt=10 tables, sampling
// rate s=10%, combined table size 1,000,000 tuples (zipfian z=1 sizes),
// Cost(T) = |T|/1000, SampleSize(T) = s*|T|, M = 50,000, averaged over 100
// random instances.
type SchedConfig struct {
	NumSITs     int
	LenSITs     int
	NumTables   int
	TotalTuples int
	SampleRate  float64
	SizeZipf    float64
	Memory      float64
	// Instances is the number of random instances averaged per point.
	Instances int
	// HybridBudget is Hybrid's A* time budget (the paper uses one second).
	HybridBudget time.Duration
	// OptExpansionCap aborts pathological Opt searches (0 = unlimited).
	OptExpansionCap int
	// Parallelism bounds the fork-join solving the random instances of a
	// sweep point (0 = GOMAXPROCS, 1 = serial). Instances are always drawn
	// serially from one seeded stream and aggregated in instance order, so
	// the estimated costs are identical at every parallelism level; only the
	// measured optimization times become noisier under contention.
	Parallelism int
	Seed        int64
}

// DefaultSchedConfig returns the paper's defaults with a reduced instance
// count so the full sweep runs in seconds; cmd/sitbench can restore
// Instances=100.
func DefaultSchedConfig() SchedConfig {
	return SchedConfig{
		NumSITs:      10,
		LenSITs:      5,
		NumTables:    10,
		TotalTuples:  1000000,
		SampleRate:   0.10,
		SizeZipf:     1.0,
		Memory:       50000,
		Instances:    20,
		HybridBudget: time.Second,
		Seed:         11,
	}
}

// RandomInstance draws one scheduling instance: table sizes zipfian over the
// total, per-table costs |T|/1000 and sample sizes s*|T|, and NumSITs
// dependency sequences of length 2..LenSITs over distinct random tables.
func RandomInstance(rng *rand.Rand, cfg SchedConfig) ([]sched.Task, sched.Env, error) {
	if cfg.NumTables < 2 || cfg.LenSITs < 2 {
		return nil, sched.Env{}, fmt.Errorf("experiments: instance needs >= 2 tables and lenSITs >= 2")
	}
	sizes, err := datagen.ZipfSizes(cfg.TotalTuples, cfg.NumTables, cfg.SizeZipf)
	if err != nil {
		return nil, sched.Env{}, err
	}
	env := sched.Env{
		Cost:       map[string]float64{},
		SampleSize: map[string]float64{},
		Memory:     cfg.Memory,
	}
	tables := make([]string, cfg.NumTables)
	for i, size := range sizes {
		tables[i] = fmt.Sprintf("T%02d", i+1)
		cost := float64(size) / 1000
		if cost < 1 {
			cost = 1
		}
		ss := cfg.SampleRate * float64(size)
		if ss < 1 {
			ss = 1
		}
		env.Cost[tables[i]] = cost
		env.SampleSize[tables[i]] = ss
	}
	tasks := make([]sched.Task, cfg.NumSITs)
	for i := range tasks {
		maxLen := cfg.LenSITs
		if maxLen > cfg.NumTables {
			maxLen = cfg.NumTables
		}
		l := rng.Intn(maxLen-1) + 2
		perm := rng.Perm(cfg.NumTables)
		seq := make([]string, l)
		for j := 0; j < l; j++ {
			seq[j] = tables[perm[j]]
		}
		tasks[i] = sched.Task{ID: fmt.Sprintf("sit%02d", i+1), Seq: seq}
	}
	return tasks, env, nil
}

// MinFeasibleMemory returns the largest per-table sample size of an instance:
// the minimum memory budget under which any schedule exists (the lower end of
// Figure 10's sweep).
func MinFeasibleMemory(env sched.Env) float64 {
	maxSS := 0.0
	for _, ss := range env.SampleSize {
		if ss > maxSS {
			maxSS = ss
		}
	}
	return maxSS
}

// TechName identifies a scheduling technique in results.
type TechName string

// The techniques compared in Section 5.2.
const (
	TechNaive  TechName = "Naive"
	TechOpt    TechName = "Opt"
	TechGreedy TechName = "Greedy"
	TechHybrid TechName = "Hybrid"
)

// AllTechniques lists the techniques in the paper's order.
func AllTechniques() []TechName {
	return []TechName{TechNaive, TechOpt, TechGreedy, TechHybrid}
}

// TechPoint aggregates one technique at one sweep point.
type TechPoint struct {
	// AvgCost is the mean estimated schedule cost over the instances.
	AvgCost float64
	// AvgOptTime is the mean optimization (solver) time.
	AvgOptTime time.Duration
	// Failures counts instances the technique could not solve (expansion cap).
	Failures int
}

// SweepPoint is one x-axis position of a scheduling sweep.
type SweepPoint struct {
	X          float64
	Techniques map[TechName]TechPoint
}

// SchedSweep runs the techniques over random instances at each x value,
// mutating the base config through vary.
func SchedSweep(base SchedConfig, xs []float64, vary func(*SchedConfig, float64), techs []TechName) ([]SweepPoint, error) {
	if len(techs) == 0 {
		techs = AllTechniques()
	}
	var out []SweepPoint
	for _, x := range xs {
		cfg := base
		vary(&cfg, x)
		// Draw every instance up front from the single seeded stream (the
		// exact sequence a serial run sees), then solve the instances side by
		// side and reduce in instance order.
		type instance struct {
			tasks []sched.Task
			env   sched.Env
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		insts := make([]instance, cfg.Instances)
		for i := range insts {
			tasks, env, err := RandomInstance(rng, cfg)
			if err != nil {
				return nil, err
			}
			insts[i] = instance{tasks: tasks, env: env}
		}
		type techOutcome struct {
			cost    float64
			elapsed time.Duration
			failed  bool
		}
		results := make([]map[TechName]techOutcome, cfg.Instances)
		err := parallelFor(cfg.Instances, cfg.Parallelism, func(i int) error {
			r := make(map[TechName]techOutcome, len(techs))
			for _, tn := range techs {
				cost, elapsed, err := runTechnique(tn, insts[i].tasks, insts[i].env, cfg)
				if err != nil {
					r[tn] = techOutcome{failed: true}
					continue
				}
				r[tn] = techOutcome{cost: cost, elapsed: elapsed}
			}
			results[i] = r
			return nil
		})
		if err != nil {
			return nil, err
		}
		point := SweepPoint{X: x, Techniques: map[TechName]TechPoint{}}
		for _, tn := range techs {
			s := TechPoint{}
			for _, r := range results {
				o := r[tn]
				if o.failed {
					s.Failures++
					continue
				}
				s.AvgCost += o.cost
				s.AvgOptTime += o.elapsed
			}
			if n := cfg.Instances - s.Failures; n > 0 {
				s.AvgCost /= float64(n)
				s.AvgOptTime /= time.Duration(n)
			}
			point.Techniques[tn] = s
		}
		out = append(out, point)
	}
	return out, nil
}

func runTechnique(tn TechName, tasks []sched.Task, env sched.Env, cfg SchedConfig) (float64, time.Duration, error) {
	start := time.Now() //statcheck:ignore rawrand wall-clock timing column, not part of the result
	var (
		s   sched.Schedule
		err error
	)
	switch tn {
	case TechNaive:
		s, err = sched.Naive(tasks, env)
	case TechOpt:
		s, _, err = sched.OptWith(tasks, env, sched.Options{MaxExpansions: cfg.OptExpansionCap})
	case TechGreedy:
		s, _, err = sched.Greedy(tasks, env)
	case TechHybrid:
		s, _, err = sched.Hybrid(tasks, env, cfg.HybridBudget)
	default:
		return 0, 0, fmt.Errorf("experiments: unknown technique %q", tn)
	}
	elapsed := time.Since(start) //statcheck:ignore rawrand wall-clock timing column, not part of the result
	if err != nil {
		return 0, 0, err
	}
	if verr := sched.Validate(s, tasks, env); verr != nil {
		return 0, 0, fmt.Errorf("experiments: %s produced an invalid schedule: %w", tn, verr)
	}
	return s.Cost, elapsed, nil
}

// RunFigure8 sweeps the number of SITs (Figure 8: estimated cost and
// optimization time vs numSITs).
func RunFigure8(base SchedConfig, numSITs []int) ([]SweepPoint, error) {
	xs := make([]float64, len(numSITs))
	for i, n := range numSITs {
		xs[i] = float64(n)
	}
	return SchedSweep(base, xs, func(c *SchedConfig, x float64) { c.NumSITs = int(x) }, nil)
}

// RunFigure9 sweeps the number of tables (Figure 9: as nt grows, SIT overlap
// vanishes and all techniques converge to Naive).
func RunFigure9(base SchedConfig, numTables []int) ([]SweepPoint, error) {
	xs := make([]float64, len(numTables))
	for i, n := range numTables {
		xs[i] = float64(n)
	}
	return SchedSweep(base, xs, func(c *SchedConfig, x float64) { c.NumTables = int(x) }, nil)
}

// RunFigure10 sweeps the memory budget (Figure 10: Naive is flat, the others
// improve until the unbounded-memory schedule is reached).
func RunFigure10(base SchedConfig, memories []float64) ([]SweepPoint, error) {
	return SchedSweep(base, memories, func(c *SchedConfig, x float64) { c.Memory = x }, nil)
}
