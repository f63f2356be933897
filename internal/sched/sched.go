// Package sched solves the multiple-SIT creation problem of Section 4: given
// a set of SITs (abstracted as dependency sequences of table scans), a
// per-table scan cost, a per-table sample size and a memory budget M, find a
// minimum-cost ordering of shared sequential scans that creates every SIT
// while never exceeding M memory for in-flight samples.
//
// The problem is a memory-constrained, weighted Shortest Common Supersequence
// (Section 4.3). The solvers are:
//
//   - Opt: the A* algorithm of Section 4.3.1, guaranteed optimal.
//   - Greedy: A* with the OPEN list cleared each iteration (Section 4.3.2).
//   - Hybrid: A* that degrades to Greedy after a time budget (Section 4.3.2).
//   - Naive: one-SIT-at-a-time, no scan sharing (the paper's baseline).
//
// By default Opt generates only maximal memory-feasible advance sets, a
// dominance pruning that preserves optimality because advancing more
// sequences at a shared scan never increases the remaining cost; the paper's
// literal all-subsets successor generation (generateSuccessors, Section
// 4.3.1) is available via Options.AllSubsets and is used to cross-check
// optimality in tests.
package sched

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Task is one SIT to create, abstracted as its dependency sequence: the
// tables to scan, in order (earlier scans produce the intermediate SITs later
// scans consume). Sequences with several root-to-leaf paths contribute one
// Task per path; see SITTask for the concrete mapping.
type Task struct {
	ID  string
	Seq []string
}

// Env is the cost model of Section 4.3: per-table scan costs (the paper uses
// Cost(T) = |T|/1000), per-table sample sizes (SampleSize(T) = s*|T|) and the
// memory budget M. Memory <= 0 means unbounded.
type Env struct {
	Cost       map[string]float64
	SampleSize map[string]float64
	Memory     float64
}

// validate checks that every table referenced by the tasks has a cost and a
// sample size, and that each task is individually feasible under M.
func (e Env) validate(tasks []Task) error {
	for _, t := range tasks {
		if len(t.Seq) == 0 {
			return fmt.Errorf("sched: task %q has an empty dependency sequence", t.ID)
		}
		for _, tab := range t.Seq {
			c, ok := e.Cost[tab]
			if !ok {
				return fmt.Errorf("sched: no scan cost for table %q (task %q)", tab, t.ID)
			}
			if c <= 0 {
				return fmt.Errorf("sched: scan cost for table %q must be positive, got %v", tab, c)
			}
			s, ok := e.SampleSize[tab]
			if !ok {
				return fmt.Errorf("sched: no sample size for table %q (task %q)", tab, t.ID)
			}
			if s <= 0 {
				return fmt.Errorf("sched: sample size for table %q must be positive, got %v", tab, s)
			}
			if e.Memory > 0 && s > e.Memory {
				return fmt.Errorf("sched: sample size %v of table %q exceeds memory budget %v; no schedule exists",
					s, tab, e.Memory)
			}
		}
	}
	return nil
}

// Step is one shared sequential scan: the table scanned and the indices of
// the tasks whose dependency sequences advance during it.
type Step struct {
	Table   string
	Advance []int
}

// Schedule is an ordered list of scans creating every task's SIT.
type Schedule struct {
	Steps []Step
	Cost  float64
}

// Stats reports solver effort.
type Stats struct {
	Expanded  int
	Generated int
	Elapsed   time.Duration
	// SwitchedToGreedy is set when Hybrid abandoned optimality.
	SwitchedToGreedy bool
}

// Validate simulates the schedule and checks that it is executable: every
// advance matches the task's next pending table, per-scan sample memory stays
// within budget, every task completes, and the recorded cost matches.
func Validate(s Schedule, tasks []Task, env Env) error {
	if err := env.validate(tasks); err != nil {
		return err
	}
	pos := make([]int, len(tasks))
	cost := 0.0
	for si, step := range s.Steps {
		cost += env.Cost[step.Table]
		if len(step.Advance) == 0 {
			return fmt.Errorf("sched: step %d scans %q but advances nothing", si, step.Table)
		}
		mem := 0.0
		seen := map[int]bool{}
		for _, ti := range step.Advance {
			if ti < 0 || ti >= len(tasks) {
				return fmt.Errorf("sched: step %d advances unknown task %d", si, ti)
			}
			if seen[ti] {
				return fmt.Errorf("sched: step %d advances task %d twice", si, ti)
			}
			seen[ti] = true
			t := tasks[ti]
			if pos[ti] >= len(t.Seq) {
				return fmt.Errorf("sched: step %d advances completed task %q", si, t.ID)
			}
			if t.Seq[pos[ti]] != step.Table {
				return fmt.Errorf("sched: step %d scans %q but task %q expects %q",
					si, step.Table, t.ID, t.Seq[pos[ti]])
			}
			pos[ti]++
			mem += env.SampleSize[step.Table]
		}
		if env.Memory > 0 && mem > env.Memory+1e-9 {
			return fmt.Errorf("sched: step %d uses %v sample memory, budget %v", si, mem, env.Memory)
		}
	}
	for ti, p := range pos {
		if p != len(tasks[ti].Seq) {
			return fmt.Errorf("sched: task %q incomplete (%d of %d scans)", tasks[ti].ID, p, len(tasks[ti].Seq))
		}
	}
	if diff := s.Cost - cost; diff > 1e-6 || diff < -1e-6 {
		return fmt.Errorf("sched: schedule cost %v does not match simulated cost %v", s.Cost, cost)
	}
	return nil
}

// Naive creates each SIT separately with no scan sharing: the baseline of
// Section 5.2. Its cost is the sum over all tasks of their sequences' scan
// costs, and it holds a single sample in memory at any time.
func Naive(tasks []Task, env Env) (Schedule, error) {
	if err := env.validate(tasks); err != nil {
		return Schedule{}, err
	}
	var s Schedule
	for ti, t := range tasks {
		for _, tab := range t.Seq {
			s.Steps = append(s.Steps, Step{Table: tab, Advance: []int{ti}})
			s.Cost += env.Cost[tab]
		}
	}
	return s, nil
}

// sortedTables returns the distinct tables referenced by the tasks, sorted.
func sortedTables(tasks []Task) []string {
	set := map[string]bool{}
	for _, t := range tasks {
		for _, tab := range t.Seq {
			set[tab] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// String renders the schedule compactly: "scan T2 (tasks 0,1); scan T3 (2)".
func (s Schedule) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "schedule{cost=%g", s.Cost)
	for _, st := range s.Steps {
		fmt.Fprintf(&sb, "; scan %s ->", st.Table)
		for i, ti := range st.Advance {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, " %d", ti)
		}
	}
	sb.WriteString("}")
	return sb.String()
}

// EnvFromSizes derives the paper's cost model from table cardinalities:
// Cost(T) = |T| * costPerRow (the paper uses 1/1000, with a floor of one
// unit) and SampleSize(T) = rate * |T| (floored at one tuple).
func EnvFromSizes(sizes map[string]int, costPerRow, sampleRate, memory float64) (Env, error) {
	if costPerRow <= 0 || sampleRate <= 0 {
		return Env{}, fmt.Errorf("sched: cost per row and sample rate must be positive")
	}
	env := Env{Cost: map[string]float64{}, SampleSize: map[string]float64{}, Memory: memory}
	// Visit tables in sorted order so validation errors name the same table
	// on every run regardless of map iteration order.
	names := make([]string, 0, len(sizes))
	for name := range sizes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := sizes[name]
		if n < 0 {
			return Env{}, fmt.Errorf("sched: negative size for table %q", name)
		}
		c := float64(n) * costPerRow
		if c < 1 {
			c = 1
		}
		ss := float64(n) * sampleRate
		if ss < 1 {
			ss = 1
		}
		env.Cost[name] = c
		env.SampleSize[name] = ss
	}
	return env, nil
}
