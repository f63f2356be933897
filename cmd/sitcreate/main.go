// Command sitcreate builds a SIT over a database from a textual spec and
// reports its histogram and accuracy:
//
//	sitcreate -sit "T4.a | T1 JOIN T2 ON T1.jnext = T2.jprev ..." \
//	          [-method sweep] [-buckets 100] [-rate 0.1] [-csv dir] [-verify]
//
// With -csv the database is loaded from <dir>/<table>.csv files (header row,
// int64 fields); without it the paper's synthetic chain database is
// generated, whose tables are T1..T4 with join columns jnext/jprev and
// payload columns a, b, c.
//
// With -verify the generating query is also executed and the SIT's range
// estimates are scored against the true result distribution.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/sitstats/sits"
	"github.com/sitstats/sits/internal/cliopt"
)

// options is the parsed command line.
type options struct {
	sit     string
	method  string
	buckets int
	rate    float64
	verify  bool
	queries int
	eng     *cliopt.Engine
}

func main() {
	var o options
	flag.StringVar(&o.sit, "sit", "", "SIT spec, e.g. \"S.a | R JOIN S ON R.x = S.y\" (required)")
	flag.StringVar(&o.method, "method", "sweep", "histsit | sweep | sweepindex | sweepfull | sweepexact | materialize")
	flag.IntVar(&o.buckets, "buckets", 100, "histogram buckets")
	flag.Float64Var(&o.rate, "rate", 0.10, "sampling rate for sweep/sweepindex")
	flag.BoolVar(&o.verify, "verify", false, "execute the generating query and score the SIT's accuracy")
	flag.IntVar(&o.queries, "queries", 1000, "range queries used by -verify")
	o.eng = cliopt.Register(flag.CommandLine, 1)
	o.eng.RegisterData(flag.CommandLine)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "sitcreate:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.sit == "" {
		return fmt.Errorf("missing -sit (e.g. -sit \"T2.a | T1 JOIN T2 ON T1.jnext = T2.jprev\")")
	}
	spec, err := sits.ParseSIT(o.sit)
	if err != nil {
		return err
	}
	method, err := sits.ParseMethod(o.method)
	if err != nil {
		return err
	}
	cat, err := o.eng.Catalog(spec.Expr.Tables())
	if err != nil {
		return err
	}
	cfg, err := o.eng.Config()
	if err != nil {
		return err
	}
	cfg.Buckets = o.buckets
	cfg.SampleRate = o.rate
	b, err := sits.NewBuilder(cat, cfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := b.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "sitcreate: closing spill store:", cerr)
		}
	}()
	start := time.Now() //statcheck:ignore rawrand wall-clock timing column, not part of the result
	s, err := b.Build(spec, method)
	if err != nil {
		return err
	}
	elapsed := time.Since(start) //statcheck:ignore rawrand wall-clock timing column, not part of the result
	fmt.Printf("built %s with %s in %v\n", spec.String(), method, elapsed.Round(time.Microsecond))
	if gov := b.Governor(); gov != nil {
		line := fmt.Sprintf("memory: peak %d of %d budget bytes", gov.Peak(), gov.Budget())
		if store, rerr := gov.Runs(); rerr == nil {
			if st := store.Stats(); st.SpilledBytes > 0 {
				line += fmt.Sprintf(", spilled %d bytes (%.2fx raw)", st.SpilledBytes, st.Ratio())
			}
		}
		fmt.Println(line)
	}
	fmt.Printf("estimated result cardinality: %.0f\n", s.EstimatedCard)
	fmt.Printf("histogram: %v\n", s.Hist)
	if !o.verify {
		return nil
	}
	truth, err := sits.GroundTruth(cat, spec.Expr, spec.Table, spec.Attr)
	if err != nil {
		return err
	}
	lo, ok := truth.Min()
	if !ok {
		fmt.Println("generating query result is empty; nothing to verify")
		return nil
	}
	hi, _ := truth.Max()
	qs, err := sits.RandomRangeQueries(o.eng.Seed, lo, hi, o.queries)
	if err != nil {
		return err
	}
	acc, err := sits.EvaluateAccuracy(s, truth, qs)
	if err != nil {
		return err
	}
	fmt.Printf("true result cardinality:      %d\n", truth.Len())
	fmt.Printf("accuracy over %d range queries: avg relative error %.2f%%, median %.2f%%, max %.2f%%\n",
		acc.Queries, 100*acc.AvgRelError, 100*acc.MedianRelError, 100*acc.MaxRelError)
	return nil
}
