//go:build !race

package main

import (
	"slices"
	"testing"
)

// TestDaemonPlanSpeedup is the plan tier's gate: over fresh constants on the
// five chain shapes, the server-reported estimate time of a plan hit must be
// at least 3x cheaper than a cold estimate's (nearest-rank p50s). A trial is
// one fresh daemon serving 5 000 requests from 200 clients; only about one
// request per shape is cold, so one trial's ratio swings widely, and the
// verdict is the median ratio over five trials. The race detector's
// instrumentation flattens the ratio, so the gate runs without it only.
func TestDaemonPlanSpeedup(t *testing.T) {
	const trials, n, c = 5, 5000, 200
	ratios := make([]float64, trials)
	for i := range ratios {
		d := startDaemon(t, c)
		samples := d.drive(n, c, 1, 1)
		d.stop(t)
		if bad, first := failures(samples); bad > 0 {
			t.Fatalf("trial %d: %d of %d requests failed; first: %v", i, bad, n, first)
		}
		var cold, plan []float64
		for _, s := range samples {
			switch s.tier {
			case "cold":
				cold = append(cold, s.us)
			case "plan-hit":
				plan = append(plan, s.us)
			}
		}
		if len(cold) == 0 || len(plan) == 0 {
			t.Fatalf("trial %d: %d cold and %d plan-hit requests, want both", i, len(cold), len(plan))
		}
		coldP50, planP50 := p50(cold), p50(plan)
		ratios[i] = coldP50 / planP50
		t.Logf("trial %d: %d cold p50 %.1fus, %d plan-hit p50 %.1fus: %.1fx",
			i, len(cold), coldP50, len(plan), planP50, ratios[i])
	}
	if med := p50(slices.Clone(ratios)); med < 3 {
		t.Fatalf("median plan speedup %.2fx over trials %.2f, want >= 3x", med, ratios)
	}
}

// p50 returns the nearest-rank median of vals, sorting them in place.
func p50(vals []float64) float64 {
	slices.Sort(vals)
	return vals[(len(vals)-1)/2]
}
