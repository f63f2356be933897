package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// aaCell is one (end-to-end metric, workload) cell of an A/A comparison: the
// same code measured twice.
type aaCell struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

// aaReport is the committed form of an A/A run.
type aaReport struct {
	Host    map[string]string `json:"host"`
	Seed    int64             `json:"seed"`
	Seconds float64           `json:"seconds"`
	Cells   []aaCell          `json:"cells"`
	Correct bool              `json:"correct"`
}

// hostInfo describes the machine and build a result was measured on.
func hostInfo(root string) map[string]string {
	h := map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"commit":     "unknown",
		"cpu":        "unknown",
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h["commit"] = strings.TrimSpace(string(out))
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// runAA measures the same code twice and compares every end-to-end cell
// against the metric's bound. Each workload's two runs are back to back, so a
// slow drift of the machine lands on both sides of a cell.
func runAA(e *env, ws []workload, opt options, out string) int {
	opt.trace = false
	rep := aaReport{Host: hostInfo(e.root), Seed: opt.seed, Seconds: opt.seconds, Correct: true}
	sets := [2]map[string]*result{{}, {}}
	for _, w := range ws {
		for i := range sets {
			res, err := runWorkload(e, w, opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printResult(os.Stdout, res)
			rep.Correct = rep.Correct && res.correct()
			sets[i][w.name] = res
		}
	}
	within := true
	fmt.Println("\nA/A comparison: same code measured twice, each workload's two runs back to back")
	fmt.Println("workload       metric         first        second   rel.diff   bound")
	for _, w := range ws {
		for _, d := range endToEndDefs {
			a, b := sets[0][w.name].EndToEnd[d.name], sets[1][w.name].EndToEnd[d.name]
			c := aaCell{Workload: w.name, Metric: d.name, Unit: d.unit, First: a, Second: b, Bound: d.bound}
			c.RelDiff = math.Abs(relDiff(b, a))
			c.Within = c.RelDiff <= d.bound
			within = within && c.Within
			mark := ""
			if !c.Within {
				mark = "  OUTSIDE"
			}
			fmt.Printf("%-14s %-12s %12.4f %12.4f %9.2f%% %6.0f%%%s\n", w.name, d.name, a, b, 100*c.RelDiff, 100*d.bound, mark)
			rep.Cells = append(rep.Cells, c)
		}
	}
	if out != "" {
		if err := writeJSON(filepath.Dir(out), filepath.Base(out), rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if !within || !rep.Correct {
		return 1
	}
	return 0
}
