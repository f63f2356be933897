// Command sitbench regenerates every figure of the paper's evaluation
// (Section 5) as text tables:
//
//	sitbench -experiment fig7     # Figures 7(a)-(c): single-SIT accuracy
//	sitbench -experiment uniform  # Section 5.1 prose: independent attributes
//	sitbench -experiment fig8     # Figure 8: scheduling vs numSITs
//	sitbench -experiment fig9     # Figure 9: scheduling vs number of tables
//	sitbench -experiment fig10    # Figure 10: scheduling vs memory budget
//	sitbench -experiment all      # everything
//
// Flags scale the workloads between quick smoke runs and the paper's full
// setting (e.g. -instances 100 restores the paper's instance count).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/sitstats/sits/internal/cliopt"
	"github.com/sitstats/sits/internal/experiments"
)

// options is the parsed command line.
type options struct {
	exp       string
	queries   int
	buckets   string
	instances int
	numSITs   int
	lenSITs   int
	tables    int
	memory    float64
	hybridMS  int
	optCap    int
	eng       *cliopt.Engine
}

func main() {
	var o options
	flag.StringVar(&o.exp, "experiment", "all", "fig7 | uniform | fig8 | fig9 | fig10 | all")
	flag.IntVar(&o.queries, "queries", 1000, "random range queries per accuracy measurement (paper: 1000)")
	flag.StringVar(&o.buckets, "buckets", "", "comma-separated histogram sizes for fig7 (default 20,50,100,200)")
	flag.IntVar(&o.instances, "instances", 20, "random instances per scheduling point (paper: 100)")
	flag.IntVar(&o.numSITs, "numsits", 10, "default number of SITs per scheduling instance (paper: 10)")
	flag.IntVar(&o.lenSITs, "lensits", 5, "maximum dependency-sequence length (paper: 5)")
	flag.IntVar(&o.tables, "tables", 10, "number of tables in scheduling instances (paper: 10)")
	flag.Float64Var(&o.memory, "memory", 50000, "memory budget M (paper: 50000)")
	flag.IntVar(&o.hybridMS, "hybrid-ms", 1000, "Hybrid's A* budget in milliseconds (paper: 1000)")
	flag.IntVar(&o.optCap, "opt-cap", 2000000, "abort Opt after this many A* expansions (0 = unlimited); capped instances count as failures")
	o.eng = cliopt.Register(flag.CommandLine, 11)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "sitbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	eng, err := o.eng.Config()
	if err != nil {
		return err
	}

	schedCfg := experiments.DefaultSchedConfig()
	schedCfg.Instances = o.instances
	schedCfg.NumSITs = o.numSITs
	schedCfg.LenSITs = o.lenSITs
	schedCfg.NumTables = o.tables
	schedCfg.Memory = o.memory
	schedCfg.HybridBudget = time.Duration(o.hybridMS) * time.Millisecond
	schedCfg.OptExpansionCap = o.optCap
	schedCfg.Parallelism = eng.Parallelism
	schedCfg.Seed = eng.Seed

	all := o.exp == "all"
	ran := false
	if o.exp == "fig7" || all {
		ran = true
		cfg := experiments.DefaultFig7Config()
		cfg.Queries = o.queries
		cfg.Seed = eng.Seed
		cfg.Parallelism = eng.Parallelism
		cfg.MemBudget = eng.MemBudget
		if o.buckets != "" {
			var err error
			cfg.Buckets, err = parseInts(o.buckets)
			if err != nil {
				return err
			}
		}
		fmt.Println("== Figure 7: single-SIT accuracy, skewed correlated join attributes (z=1) ==")
		res, err := experiments.RunFigure7(cfg)
		if err != nil {
			return err
		}
		if err := experiments.PrintFigure7(os.Stdout, res, "Figure 7"); err != nil {
			return err
		}
		if err := experiments.PrintFigure7BuildTimes(os.Stdout, res); err != nil {
			return err
		}
		fmt.Println()
	}
	if o.exp == "uniform" || all {
		ran = true
		cfg := experiments.UniformConfig()
		cfg.Queries = o.queries
		cfg.Seed = eng.Seed
		cfg.Parallelism = eng.Parallelism
		cfg.MemBudget = eng.MemBudget
		fmt.Println("== Section 5.1 (prose): uniform, independent join attributes ==")
		res, err := experiments.RunFigure7(cfg)
		if err != nil {
			return err
		}
		if err := experiments.PrintFigure7(os.Stdout, res, "Uniform data"); err != nil {
			return err
		}
		fmt.Println()
	}
	if o.exp == "fig8" || all {
		ran = true
		fmt.Printf("== Figure 8: multi-SIT scheduling vs numSITs (%d instances/point) ==\n", schedCfg.Instances)
		points, err := experiments.RunFigure8(schedCfg, []int{2, 5, 10, 15, 20})
		if err != nil {
			return err
		}
		if err := experiments.PrintSchedSweep(os.Stdout, points, "numSITs", "Figure 8"); err != nil {
			return err
		}
		fmt.Println()
	}
	if o.exp == "fig9" || all {
		ran = true
		fmt.Printf("== Figure 9: multi-SIT scheduling vs number of tables (%d instances/point) ==\n", schedCfg.Instances)
		points, err := experiments.RunFigure9(schedCfg, []int{5, 10, 20, 30, 40})
		if err != nil {
			return err
		}
		if err := experiments.PrintSchedSweep(os.Stdout, points, "tables", "Figure 9"); err != nil {
			return err
		}
		fmt.Println()
	}
	if o.exp == "fig10" || all {
		ran = true
		fmt.Printf("== Figure 10: multi-SIT scheduling vs memory budget (%d instances/point) ==\n", schedCfg.Instances)
		rng := rand.New(rand.NewSource(schedCfg.Seed))
		_, env, err := experiments.RandomInstance(rng, schedCfg)
		if err != nil {
			return err
		}
		floor := experiments.MinFeasibleMemory(env)
		memories := []float64{floor * 1.05, floor * 1.5, floor * 2, floor * 3, floor * 5, floor * 10}
		points, err := experiments.RunFigure10(schedCfg, memories)
		if err != nil {
			return err
		}
		if err := experiments.PrintSchedSweep(os.Stdout, points, "memory", "Figure 10"); err != nil {
			return err
		}
		fmt.Println()
	}
	if o.exp == "ablation" || all {
		ran = true
		fmt.Println("== Ablation: histogram construction algorithms (extension) ==")
		cfg := experiments.DefaultAblationConfig()
		cfg.Queries = o.queries
		cfg.Seed = eng.Seed
		cfg.Parallelism = eng.Parallelism
		cfg.MemBudget = eng.MemBudget
		cells, err := experiments.RunHistogramAblation(cfg)
		if err != nil {
			return err
		}
		if err := experiments.PrintHistogramAblation(os.Stdout, cfg, cells); err != nil {
			return err
		}
		fmt.Println()
	}
	if o.exp == "acyclic" || all {
		ran = true
		fmt.Println("== Acyclic generating queries: snowflake SIT accuracy (extension) ==")
		cfg := experiments.DefaultAcyclicConfig()
		cfg.Queries = o.queries
		cfg.Seed = eng.Seed
		cfg.Parallelism = eng.Parallelism
		cfg.MemBudget = eng.MemBudget
		cells, err := experiments.RunAcyclic(cfg)
		if err != nil {
			return err
		}
		if err := experiments.PrintAcyclic(os.Stdout, cfg, cells); err != nil {
			return err
		}
		fmt.Println()
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want fig7, uniform, fig8, fig9, fig10, ablation, acyclic or all)", o.exp)
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitComma(s) {
		var v int
		if _, err := fmt.Sscanf(part, "%d", &v); err != nil || v <= 0 {
			return nil, fmt.Errorf("bad integer list %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitComma(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ',' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	return append(out, cur)
}
