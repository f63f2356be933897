// Command bench is the repository's one-command lifecycle benchmark: for each
// workload it generates a database from the seed, creates the SIT set
// (load catalog -> advise -> schedule -> build -> persist), serves estimates
// in process and through a sitserve child process, checks the outputs, and
// prints every metric by name and unit.
//
//	go run ./bench -seed 1                 # all four workloads, end-to-end metrics
//	go run ./bench -workload scan_hot      # one workload
//	go run ./bench -trace 1                # the traced run: per-layer metrics, spans in bench/out/
//	go run ./bench -aa                     # two back-to-back sets, compared against the bounds
//	go run ./bench -smoke                  # tiny tables, a few seconds
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is non-zero when a correctness
// check fails or the run cannot complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the machine-readable last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "seconds measured per workload (creation passes + both serving phases)")
		trace   = flag.Int("trace", 0, "1 = the traced run: per-layer metrics, spans written to bench/out/")
		smoke   = flag.Bool("smoke", false, "tiny tables and short windows: the whole lifecycle in a few seconds")
		aa      = flag.Bool("aa", false, "run the full set twice and compare every (metric, workload) cell against its bound")
		out     = flag.String("out", "", "with -aa: also write the comparison as JSON to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	e, err := newEnv("")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Every exit path — normal, failed check, error, SIGINT — runs the
	// cleanups: stop the daemon, remove the run directory.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()
	code := run(e, *name, options{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke}, *aa, *out)
	e.close()
	os.Exit(code)
}

func run(e *env, name string, opt options, aa bool, out string) int {
	all := fullWorkloads()
	if opt.smoke {
		all = smokeWorkloads()
		opt.seconds = min(opt.seconds, 2)
	}
	selected := all
	if name != "" {
		w, ok := findWorkload(all, name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		selected = []workload{w}
	}
	fmt.Printf("# sits lifecycle benchmark: seed %d, %.0f s measured per workload, closed loop, %d clients (GOMAXPROCS %d), builder width 0\n",
		opt.seed, opt.seconds, numClients(), runtime.GOMAXPROCS(0))
	if aa {
		return runAA(e, selected, opt, out)
	}
	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		res, err := runWorkload(e, w, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(os.Stdout, res)
		line.Correct = line.Correct && res.correct()
		line.Attempted += res.attempted()
		line.Failed += res.failed()
		prefix := ""
		if len(selected) > 1 {
			prefix = w.name + "/"
		}
		defs, vals := endToEndDefs, res.EndToEnd
		if opt.trace {
			defs, vals = perLayerDefs, res.PerLayer
		}
		for _, d := range defs {
			line.Metrics[prefix+d.name] = metricValue{vals[d.name], d.unit}
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(buf))
	if !line.Correct {
		return 1
	}
	return 0
}
