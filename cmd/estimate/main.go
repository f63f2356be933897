// Command estimate runs the SIT-aware cardinality estimator (Section 2.2's
// optimizer integration) over an SPJ query:
//
//	estimate -query "T1 JOIN T2 ON T1.jnext = T2.jprev" -pred "T2.a:1:100" \
//	         [-build "T2.a | T1 JOIN T2 ON T1.jnext = T2.jprev"] [-method sweep] \
//	         [-sits stats.json] [-save stats.json] [-csv dir] [-truth]
//
// Predicates are "Table.attr:lo:hi", comma-separated. With -build, the named
// SITs are created first and registered; with -sits, previously saved SITs
// are loaded and registered. -truth additionally executes the query for the
// exact answer. Without -csv the synthetic chain database is generated.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/sitstats/sits"
	"github.com/sitstats/sits/internal/cliopt"
)

// options is the parsed command line.
type options struct {
	query    string
	preds    string
	builds   string
	method   string
	sitsFile string
	saveFile string
	truth    bool
	eng      *cliopt.Engine
}

func main() {
	var o options
	flag.StringVar(&o.query, "query", "", "join expression, e.g. \"T1 JOIN T2 ON T1.jnext = T2.jprev\" (required)")
	flag.StringVar(&o.preds, "pred", "", "range predicates \"T.a:lo:hi[,T.b:lo:hi...]\"")
	flag.StringVar(&o.builds, "build", "", "semicolon-separated SIT specs to create and register first")
	flag.StringVar(&o.method, "method", "sweep", "creation method for -build")
	flag.StringVar(&o.sitsFile, "sits", "", "load previously saved SITs from this JSON file")
	flag.StringVar(&o.saveFile, "save", "", "save all built/loaded SITs to this JSON file")
	flag.BoolVar(&o.truth, "truth", false, "also execute the query for the exact cardinality")
	o.eng = cliopt.Register(flag.CommandLine, 1)
	o.eng.RegisterData(flag.CommandLine)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "estimate:", err)
		os.Exit(1)
	}
}

// saveSITs encodes the SIT set written by -save; tests replace it to make
// the write fail part-way.
var saveSITs = sits.SaveSITs

func run(o options) error {
	if o.query == "" {
		return fmt.Errorf("missing -query")
	}
	expr, err := sits.ParseExpr(o.query)
	if err != nil {
		return err
	}
	preds, err := sits.ParsePredicates(o.preds)
	if err != nil {
		return err
	}
	cat, err := o.eng.Catalog(expr.Tables())
	if err != nil {
		return err
	}
	cfg, err := o.eng.Config()
	if err != nil {
		return err
	}
	builder, err := sits.NewBuilder(cat, cfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := builder.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "estimate: closing spill store:", cerr)
		}
	}()
	est, err := sits.NewEstimator(builder)
	if err != nil {
		return err
	}
	var registered []*sits.SIT
	if o.sitsFile != "" {
		f, err := os.Open(o.sitsFile)
		if err != nil {
			return err
		}
		loaded, err := sits.LoadSITs(f)
		_ = f.Close()
		if err != nil {
			return err
		}
		if err := builder.AdoptCached(loaded); err != nil {
			return err
		}
		for _, s := range loaded {
			if err := est.Register(s); err != nil {
				return err
			}
		}
		registered = append(registered, loaded...)
		fmt.Printf("loaded %d SIT(s) from %s\n", len(loaded), o.sitsFile)
	}
	if o.builds != "" {
		m, err := sits.ParseMethod(o.method)
		if err != nil {
			return err
		}
		for _, specText := range strings.Split(o.builds, ";") {
			spec, err := sits.ParseSIT(strings.TrimSpace(specText))
			if err != nil {
				return err
			}
			s, err := builder.Build(spec, m)
			if err != nil {
				return err
			}
			if err := est.Register(s); err != nil {
				return err
			}
			registered = append(registered, s)
			fmt.Printf("built and registered %s (%s)\n", spec.String(), m)
		}
	}
	res, err := est.Estimate(sits.SPJQuery{Expr: expr, Preds: preds})
	if err != nil {
		return err
	}
	fmt.Printf("\nestimated cardinality: %.1f\n", res.Cardinality)
	fmt.Printf("join cardinality:      %.1f (from %s)\n", res.JoinCard, res.JoinStat)
	for _, src := range res.Sources {
		fmt.Printf("  %-30s selectivity %.4f from %s\n", src.Pred.String(), src.Selectivity, src.Stat)
	}
	if o.truth {
		card, err := exactCardinality(cat, expr, preds)
		if err != nil {
			return err
		}
		fmt.Printf("true cardinality:      %d\n", card)
	}
	if o.saveFile != "" {
		err := writeFileAtomic(o.saveFile, func(w io.Writer) error { return saveSITs(w, registered) })
		if err != nil {
			return err
		}
		fmt.Printf("saved %d SIT(s) to %s\n", len(registered), o.saveFile)
	}
	return nil
}

// writeFileAtomic writes path through a temporary file in the same directory
// that is synced, renamed over path, and followed by a sync of the directory,
// so a failed or killed write leaves the previous file whole and no temporary
// file behind.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = f.Close()
			_ = os.Remove(f.Name())
		}
	}()
	// CreateTemp makes the file owner-only; a saved set is read by other
	// processes (sitserve -sits), as a file os.Create made would be.
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = write(f); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err = d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}

// exactCardinality executes the query with every predicate applied.
func exactCardinality(cat *sits.Catalog, expr *sits.Expr, preds []sits.Predicate) (int64, error) {
	if len(preds) == 0 {
		return sits.TrueCardinality(cat, expr)
	}
	// GroundTruth gives the exact distribution of one attribute over the
	// query's result, so it answers exactly one range predicate; more than
	// one is rejected rather than approximated.
	if len(preds) == 1 {
		truth, err := sits.GroundTruth(cat, expr, preds[0].Table, preds[0].Attr)
		if err != nil {
			return 0, err
		}
		return truth.Count(sits.RangeQuery{Lo: preds[0].Lo, Hi: preds[0].Hi}), nil
	}
	return 0, fmt.Errorf("-truth supports at most one predicate")
}
