package sched

import (
	"math"
	"math/rand"
	"testing"
)

// TestUnboundedMemoryEqualsWeightedSCS: with M unbounded the multi-SIT
// scheduling problem degenerates to the plain weighted Shortest Common
// Supersequence of the dependency sequences (Section 4.3, "If the amount of
// available memory is unbounded, the optimization problem can be very easily
// mapped to a weighted version of SCS"). The two solvers are independent
// implementations; their optimal costs must agree.
func TestUnboundedMemoryEqualsWeightedSCS(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		numTables := rng.Intn(4) + 3
		tables := make([]string, numTables)
		env := Env{Cost: map[string]float64{}, SampleSize: map[string]float64{}, Memory: 0}
		cost := map[string]float64{}
		for i := range tables {
			tables[i] = string(rune('A' + i))
			c := float64(rng.Intn(9) + 1)
			env.Cost[tables[i]] = c
			env.SampleSize[tables[i]] = 1
			cost[tables[i]] = c
		}
		numTasks := rng.Intn(3) + 2
		tasks := make([]Task, numTasks)
		var seqs [][]string
		for i := range tasks {
			l := rng.Intn(3) + 2
			if l > numTables {
				l = numTables
			}
			perm := rng.Perm(numTables)
			seq := make([]string, l)
			for j := 0; j < l; j++ {
				seq[j] = tables[perm[j]]
			}
			tasks[i] = Task{ID: string(rune('0' + i)), Seq: seq}
			seqs = append(seqs, seq)
		}
		schedRes, _, err := Opt(tasks, env)
		if err != nil {
			t.Fatal(err)
		}
		scsRes, err := solveSCS(seqs, scsOptions{Cost: cost})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(schedRes.Cost-scsRes.Cost) > 1e-9 {
			t.Fatalf("trial %d: scheduler optimum %v != weighted SCS optimum %v (tasks %v)",
				trial, schedRes.Cost, scsRes.Cost, tasks)
		}
		// The schedule's scan sequence must itself be a common supersequence.
		scans := make([]string, len(schedRes.Steps))
		for i, step := range schedRes.Steps {
			scans[i] = step.Table
		}
		for _, seq := range seqs {
			if !isSupersequence(scans, seq) {
				t.Fatalf("trial %d: schedule %v is not a supersequence of %v", trial, scans, seq)
			}
		}
	}
}
