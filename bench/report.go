package main

import (
	"fmt"
	"io"
)

// printResult renders one workload's run for a reader: the phase ledger, the
// windows with their sample counts, every metric with its unit, the checks.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s (seed %d, traced %v, wall %.1f s) ==\n", r.Workload, r.Seed, r.Traced, r.WallS)
	fmt.Fprintf(w, "SIT set digest %s, %d SITs:\n", r.Digest, len(r.SITs))
	for _, s := range r.SITs {
		fmt.Fprintf(w, "  %s\n", s)
	}
	fmt.Fprintln(w, "phase      attempted  succeeded  failed")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%-10s %9d  %9d  %6d\n", p.Phase, p.Attempted, p.Succeeded, p.Failed)
	}
	fmt.Fprintf(w, "set-up repeats %.3f s; creation passes after the warm-up %.3f s\n", r.SetupS, r.PassS)
	windows := func(name string, ws []windowStats) {
		for i, x := range ws {
			fmt.Fprintf(w, "%s window %d: %.2f s, attempted %d ok %d failed %d, p50 %.2f us p99 %.2f us (n=%d), %.1f k/s\n",
				name, i+1, x.Seconds, x.Attempted, x.Succeeded, x.Failed, x.P50us, x.P99us, x.Succeeded, x.Kops)
		}
	}
	// The end-to-end serving metrics are the better-side decile over these.
	sliced := func(name string, ss []sliceStats) {
		if len(ss) == 0 {
			return
		}
		spread := func(stat func(sliceStats) float64) string {
			vals := perSlice(ss, stat)
			return fmt.Sprintf("%.2f/%.2f/%.2f", quietDecile(vals, true), median(vals), quietDecile(vals, false))
		}
		fmt.Fprintf(w, "%s slices: %d over the untraced windows; first decile/median/ninth decile: p50 %s us, p99 %s us, rate %s k/s\n", name, len(ss),
			spread(func(s sliceStats) float64 { return s.P50us }), spread(func(s sliceStats) float64 { return s.P99us }), spread(func(s sliceStats) float64 { return s.Kops }))
	}
	windows("est ", r.EstWindows)
	sliced("est ", r.EstSlices)

	if len(r.RefreshS) > 0 {
		fmt.Fprintf(w, "refresh cycles (warm-up first), seconds per Registry.Refresh: %.3f\n", r.RefreshS)
	}
	windows("http", r.HTTPWindow)
	sliced("http", r.HTTPSlices)
	defs, vals := endToEndDefs, r.EndToEnd
	if r.Traced {
		defs, vals = perLayerDefs, r.PerLayer
	}
	fmt.Fprintln(w, "metric                        value          unit")
	for _, d := range defs {
		fmt.Fprintf(w, "%-28s %14.4f  %s\n", d.name, vals[d.name], d.unit)
	}
	if r.Traced {
		fmt.Fprintln(w, "span                    count     total ms      self ms")
		for _, row := range r.Spans {
			fmt.Fprintf(w, "%-22s %6d  %11.2f  %11.2f\n", row.Name, row.Count, row.TotalMS, row.SelfMS)
		}
	}
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "check %s %-32s %s\n", verdict, c.Name, c.Detail)
	}
}
