package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"github.com/sitstats/sits/internal/datagen"
	"github.com/sitstats/sits/internal/exec"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/query"
	"github.com/sitstats/sits/internal/sit"
	"github.com/sitstats/sits/internal/workload"
)

// AcyclicConfig parameterizes the acyclic-query accuracy experiment — an
// extension of Figure 7 to the tree-shaped generating queries of Section 3.2
// (the paper evaluates chains only; this exercises the post-order join-tree
// construction with branching and a snowflaked dimension).
type AcyclicConfig struct {
	Star    datagen.StarConfig
	Buckets int
	Queries int
	Methods []sit.Method
	Seed    int64
	// Parallelism bounds the fork-join over the creation techniques and the
	// builders' shared scans (0 = GOMAXPROCS, 1 = serial).
	Parallelism int
	// MemBudget caps each builder's and ground-truth plan's operator memory
	// in bytes (0 = unlimited).
	MemBudget int64
}

// DefaultAcyclicConfig returns the default snowflake experiment.
func DefaultAcyclicConfig() AcyclicConfig {
	return AcyclicConfig{
		Star:    datagen.DefaultStarConfig(),
		Buckets: 100,
		Queries: 1000,
		Methods: sit.Methods(),
		Seed:    19,
	}
}

// AcyclicCell is one measured technique.
type AcyclicCell struct {
	Method        sit.Method
	Accuracy      workload.Result
	BuildTime     time.Duration
	EstimatedCard float64
	TrueCard      float64
}

// RunAcyclic builds SIT(F.a | F ⋈ D1 (⋈ E) ⋈ D2) with every technique and
// scores it against the materialized ground truth.
func RunAcyclic(cfg AcyclicConfig) ([]AcyclicCell, error) {
	cat, err := datagen.StarDB(cfg.Star)
	if err != nil {
		return nil, err
	}
	preds := []query.JoinPred{
		{LeftTable: "F", LeftAttr: "k1", RightTable: "D1", RightAttr: "id"},
		{LeftTable: "F", LeftAttr: "k2", RightTable: "D2", RightAttr: "id"},
	}
	if cfg.Star.SubDimRows > 0 {
		preds = append(preds, query.JoinPred{LeftTable: "D1", LeftAttr: "e", RightTable: "E", RightAttr: "id"})
	}
	expr, err := query.NewExpr(preds...)
	if err != nil {
		return nil, err
	}
	spec, err := query.NewSITSpec("F", "a", expr)
	if err != nil {
		return nil, err
	}
	gov := mem.NewGovernor(cfg.MemBudget)
	truthVals, err := exec.AttrValuesOpts(cat, expr, "F", "a", exec.Options{Gov: gov})
	if cerr := gov.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	truth := workload.NewTruth(truthVals)
	lo, ok := truth.Min()
	if !ok {
		return nil, fmt.Errorf("experiments: snowflake join result is empty")
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
	// Each technique gets a private builder, so the cells are independent and
	// run side by side; results land at their index.
	out := make([]AcyclicCell, len(cfg.Methods))
	err = parallelFor(len(cfg.Methods), cfg.Parallelism, func(i int) error {
		m := cfg.Methods[i]
		bcfg := sit.DefaultConfig()
		bcfg.Buckets = cfg.Buckets
		bcfg.Seed = cfg.Seed
		bcfg.Parallelism = cfg.Parallelism
		bcfg.MemBudget = cfg.MemBudget
		builder, err := sit.NewBuilder(cat, bcfg)
		if err != nil {
			return err
		}
		start := time.Now() //statcheck:ignore rawrand wall-clock timing column, not part of the result
		s, err := builder.Build(spec, m)
		if err != nil {
			return fmt.Errorf("experiments: acyclic %v: %w", m, err)
		}
		elapsed := time.Since(start) //statcheck:ignore rawrand wall-clock timing column, not part of the result
		acc, err := workload.Evaluate(s, truth, queries)
		if err != nil {
			return err
		}
		out[i] = AcyclicCell{
			Method: m, Accuracy: acc, BuildTime: elapsed,
			EstimatedCard: s.EstimatedCard, TrueCard: float64(truth.Len()),
		}
		return builder.Close()
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PrintAcyclic renders the experiment as a table.
func PrintAcyclic(w io.Writer, cfg AcyclicConfig, cells []AcyclicCell) error {
	fmt.Fprintf(w, "\nAcyclic (snowflake) generating query — SIT(F.a | F ⋈ D1 (⋈ E) ⋈ D2), nb=%d, %d range queries\n",
		cfg.Buckets, cfg.Queries)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "technique\tmedian err %\tmean err %\tcard est\ttrue card\tbuild time")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.0f\t%.0f\t%v\n",
			c.Method, 100*c.Accuracy.MedianRelError, 100*c.Accuracy.AvgRelError,
			c.EstimatedCard, c.TrueCard, c.BuildTime.Round(100*time.Microsecond))
	}
	return tw.Flush()
}
