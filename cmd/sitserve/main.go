// Command sitserve runs the statistics service: a long-lived HTTP daemon
// that serves SIT-based cardinality estimates over a loaded catalog.
//
//	sitserve -addr :8642 [-csv dir | -segments dir] [-tables T1,T2] \
//	         [-sits stats.json] [-build "spec;spec"] [-method sweepfull] \
//	         [-mem-budget 512M] [-parallel 0] [-refresh 30s] \
//	         [-stale-threshold 0.2]
//
// Endpoints:
//
//	GET  /estimate?query=T1+JOIN+T2+ON+T1.jnext+=+T2.jprev&pred=T2.a:0:100
//	POST /estimate   {"query": "...", "preds": [{"table":"T2","attr":"a","lo":0,"hi":100}]}
//	GET  /stats      cache hit/miss counters, registry epoch, SIT count
//	POST /refresh    run one staleness sweep immediately
//	GET  /healthz    liveness
//
// The catalog comes from -csv or -segments (the shared loader also used by
// sitcreate and estimate); with neither, the synthetic chain database is
// generated. SITs are preloaded from -sits (a file written by estimate
// -save) and/or built at startup from the semicolon-separated -build specs.
// All concurrent requests share one memory governor bounded by -mem-budget;
// estimates are cached (bit-identical to recomputation) and invalidated by
// table mutations and SIT refreshes. Under budget pressure, cold requests
// past serve.DefaultShedQueue waiting for the builder are shed with 429.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/sitstats/sits"
	"github.com/sitstats/sits/internal/cliopt"
	"github.com/sitstats/sits/internal/serve"
)

// options is the parsed command line.
type options struct {
	addr      string
	tables    string
	sitsFile  string
	builds    string
	method    string
	refresh   time.Duration
	threshold float64
	eng       *cliopt.Engine
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8642", "HTTP listen address")
	flag.StringVar(&o.tables, "tables", "", "comma-separated tables to load from -csv/-segments (default: every table file)")
	flag.StringVar(&o.sitsFile, "sits", "", "preload SITs from this JSON file (written by estimate -save)")
	flag.StringVar(&o.builds, "build", "", "semicolon-separated SIT specs to build at startup")
	flag.StringVar(&o.method, "method", "sweepfull", "creation method for -build and staleness rebuilds")
	flag.DurationVar(&o.refresh, "refresh", 0, "background staleness sweep interval (0 = disabled)")
	flag.Float64Var(&o.threshold, "stale-threshold", 0.2, "relative base-table growth that triggers a SIT rebuild")
	o.eng = cliopt.Register(flag.CommandLine, 1)
	o.eng.RegisterData(flag.CommandLine)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "sitserve:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if !(o.threshold >= 0) {
		return fmt.Errorf("-stale-threshold must be a non-negative number, got %v", o.threshold)
	}
	var tables []string
	for _, t := range strings.Split(o.tables, ",") {
		if t = strings.TrimSpace(t); t != "" {
			tables = append(tables, t)
		}
	}
	cat, err := o.eng.Catalog(tables)
	if err != nil {
		return err
	}
	cfg, err := o.eng.Config()
	if err != nil {
		return err
	}
	reg, err := sits.NewRegistry(cat, cfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := reg.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "sitserve: closing registry:", cerr)
		}
	}()

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
		if err := reg.Adopt(loaded); err != nil {
			return err
		}
		fmt.Printf("adopted %d SIT(s) from %s\n", len(loaded), o.sitsFile)
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
			if _, err := reg.Get(spec, m); err != nil {
				return err
			}
			fmt.Printf("built %s (%s)\n", spec.String(), m)
		}
	}

	svc, err := sits.NewService(reg, sits.ServeConfig{ShedQueue: serve.DefaultShedQueue})
	if err != nil {
		return err
	}
	if o.refresh > 0 {
		if err := reg.StartRefresh(o.refresh, o.threshold); err != nil {
			return err
		}
		fmt.Printf("background refresh every %v at staleness threshold %.2f\n", o.refresh, o.threshold)
	}

	srv := &http.Server{Addr: o.addr, Handler: newServer(svc, o.threshold)}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("serving %d SIT(s) on %s\n", reg.Len(), o.addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("shutting down")
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutCancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
