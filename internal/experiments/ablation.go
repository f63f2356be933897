package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"github.com/sitstats/sits/internal/datagen"
	"github.com/sitstats/sits/internal/exec"
	"github.com/sitstats/sits/internal/histogram"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/sit"
	"github.com/sitstats/sits/internal/workload"
)

// AblationConfig parameterizes the histogram-construction ablation: the same
// Figure 7 setting (one join width, one creation technique) measured across
// histogram construction algorithms, including the V-Optimal gold standard.
type AblationConfig struct {
	Chain       datagen.ChainConfig
	JoinWay     int
	Buckets     int
	Queries     int
	Method      sit.Method
	HistMethods []histogram.Method
	Seed        int64
	// Parallelism bounds the fork-join over the construction algorithms and
	// the builders' shared scans (0 = GOMAXPROCS, 1 = serial).
	Parallelism int
	// MemBudget caps each builder's and ground-truth plan's operator memory
	// in bytes (0 = unlimited).
	MemBudget int64
}

// DefaultAblationConfig returns a 3-way-chain ablation of SweepFull across
// all five construction algorithms.
func DefaultAblationConfig() AblationConfig {
	return AblationConfig{
		Chain:   datagen.DefaultChainConfig(),
		JoinWay: 3,
		Buckets: 100,
		Queries: 1000,
		Method:  sit.SweepFull,
		HistMethods: []histogram.Method{
			histogram.MaxDiffArea, histogram.MaxDiffFreq,
			histogram.EquiDepth, histogram.EquiWidth, histogram.VOptimal,
		},
		Seed: 7,
	}
}

// AblationCell is one measured construction algorithm.
type AblationCell struct {
	HistMethod histogram.Method
	Accuracy   workload.Result
	BuildTime  time.Duration
}

// RunHistogramAblation measures SIT accuracy per histogram construction
// algorithm, everything else held fixed.
func RunHistogramAblation(cfg AblationConfig) ([]AblationCell, error) {
	cat, err := datagen.ChainDB(cfg.Chain)
	if err != nil {
		return nil, err
	}
	spec, err := chainSpec(cfg.JoinWay)
	if err != nil {
		return nil, err
	}
	gov := mem.NewGovernor(cfg.MemBudget)
	truthVals, err := exec.AttrValuesOpts(cat, spec.Expr, spec.Table, spec.Attr, exec.Options{Gov: gov})
	if cerr := gov.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	truth := workload.NewTruth(truthVals)
	lo, ok := truth.Min()
	if !ok {
		return nil, fmt.Errorf("experiments: empty join result")
	}
	hi, _ := truth.Max()
	rng := rand.New(rand.NewSource(cfg.Seed))
	minCount := int64(float64(truth.Len()) * 0.0005)
	if minCount < 10 {
		minCount = 10
	}
	queries, err := workload.FilteredRangeQueries(rng, lo, hi, cfg.Queries, minCount, truth)
	if err != nil {
		return nil, err
	}
	// Each construction algorithm gets a private builder, so the cells are
	// independent and run side by side; results land at their index.
	out := make([]AblationCell, len(cfg.HistMethods))
	err = parallelFor(len(cfg.HistMethods), cfg.Parallelism, func(i int) error {
		hm := cfg.HistMethods[i]
		bcfg := sit.DefaultConfig()
		bcfg.Buckets = cfg.Buckets
		bcfg.HistMethod = hm
		bcfg.Seed = cfg.Seed
		bcfg.Parallelism = cfg.Parallelism
		bcfg.MemBudget = cfg.MemBudget
		builder, err := sit.NewBuilder(cat, bcfg)
		if err != nil {
			return err
		}
		start := time.Now() //statcheck:ignore rawrand wall-clock timing column, not part of the result
		s, err := builder.Build(spec, cfg.Method)
		if err != nil {
			return fmt.Errorf("experiments: %v with %v: %w", cfg.Method, hm, err)
		}
		elapsed := time.Since(start) //statcheck:ignore rawrand wall-clock timing column, not part of the result
		acc, err := workload.Evaluate(s, truth, queries)
		if err != nil {
			return err
		}
		out[i] = AblationCell{HistMethod: hm, Accuracy: acc, BuildTime: elapsed}
		return builder.Close()
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PrintHistogramAblation renders the ablation as a table.
func PrintHistogramAblation(w io.Writer, cfg AblationConfig, cells []AblationCell) error {
	fmt.Fprintf(w, "\nHistogram-construction ablation — %d-way chain, %v, nb=%d (%d range queries)\n",
		cfg.JoinWay, cfg.Method, cfg.Buckets, cfg.Queries)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "construction\tmedian err %\tmean err %\tbuild time")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%v\n",
			c.HistMethod, 100*c.Accuracy.MedianRelError, 100*c.Accuracy.AvgRelError,
			c.BuildTime.Round(100*time.Microsecond))
	}
	return tw.Flush()
}
