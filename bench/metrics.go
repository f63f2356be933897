package main

import (
	"fmt"
	"slices"

	"github.com/sitstats/sits"
	"github.com/sitstats/sits/internal/histogram"
)

// layerMetrics assembles the per-layer ledger of a traced run: phase spans of
// the last traced creation pass, the replayed children of its build spans,
// the isolated layer rates, the serving phases split by tier, and the daemon.
func (ms *measured) layerMetrics() (map[string]float64, []check, error) {
	e, w, cr, ph, ip, est, web := ms.e, ms.w, ms.cr, ms.ph, ms.ip, ms.est, ms.http
	m := map[string]float64{}
	var checks []check
	tp := ph.traced

	// Creation pass spans.
	m["data.load_s"] = tp.loadS
	m["advisor.candidates_ms"] = tp.adviseS * 1e3
	m["sched.solve_ms"] = tp.solveS * 1e3
	m["sched.expansions"] = float64(tp.solver.Expanded)
	m["sit.build_s"] = tp.buildS
	m["sit.persist_ms"] = tp.persistS * 1e3
	m["mem.peak_mb"] = float64(tp.peak) / (1 << 20)
	m["mem.spill_mb"] = float64(tp.spill.SpilledBytes) / (1 << 20)
	m["mem.spill_ratio"] = tp.spill.Ratio()

	// Children of the build spans, replayed.
	rp, err := replayBuilds(w, tp, cr.budget)
	if err != nil {
		return nil, nil, err
	}
	m["data.scan_mrows_s"] = rate(float64(rp.rows)/1e6, rp.scan.d)
	m["sample.mass"] = rp.mass
	m["sample.adds"] = float64(rp.adds)
	m["sit.build_other_s"] = tp.buildS - rp.children()
	if w.method == sits.Sweep {
		// The workload exists to make the reservoir the bottleneck of create.
		rest := max(rp.scan.d, rp.probe.d, rp.hist.d)
		checks = append(checks, check{"sample_dominates_create", rp.sample.d > rest,
			fmt.Sprintf("replayed sampling %.3f s, largest other child %.3f s, build spans %.3f s", rp.sample.d.Seconds(), rest.Seconds(), tp.buildS)})
	}
	var base stopwatch
	for _, col := range rp.baseCols {
		vals, err := tableColumn(tp.cat, col[0], col[1])
		if err != nil {
			return nil, nil, err
		}
		var herr error
		base.time(func() { _, herr = histogram.FromValues(vals, 100, histogram.MaxDiffArea) })
		if herr != nil {
			return nil, nil, herr
		}
	}
	m["histogram.build_s"] = base.d.Seconds()
	var scanS float64
	var scanRows int
	for _, st := range tp.steps {
		if st.taskIdx != nil {
			scanS += st.seconds
			scanRows += st.rows
		}
	}
	m["sched.ms_per_krow"] = 0 // no shared scans on a direct-build workload
	if scanRows > 0 {
		m["sched.ms_per_krow"] = scanS * 1e3 / (float64(scanRows) / 1e3)
	}

	// Shared scans against the no-sharing baseline, in build seconds.
	naive, err := cr.run(e, nil, 0, true)
	if err != nil {
		return nil, nil, err
	}
	naive.release()
	m["sit.shared_scan_saving"] = naive.buildS - median(ph.buildS)

	// Isolated layer rates.
	if err := isolatedLayers(e, w, ms.opt.seed, ph.built, ms.tf, m); err != nil {
		return nil, nil, err
	}

	// Refresh: the refresh workload's measured cycles; elsewhere one sweep
	// that finds nothing stale.
	if len(ip.refreshS) > 1 {
		m["sit.refresh_s"] = median(ip.refreshS[1:])
	} else {
		t0 := now()
		if _, err := ip.reg.Refresh(staleThreshold); err != nil {
			return nil, nil, err
		}
		m["sit.refresh_s"] = now().Sub(t0).Seconds()
	}

	// In-process serving, split by the tier that answered.
	p50 := func(lat []uint32) float64 {
		slices.Sort(lat)
		return percentile(lat, 50)
	}
	m["serve.result_hit_ns"] = p50(est.tierLat[tierRes])
	m["serve.plan_hit_ns"] = p50(est.tierLat[tierPlan])
	m["serve.cold_us"] = p50(est.tierLat[tierCold]) / 1e3
	m["serve.est_p99_us"] = quietDecile(perSlice(est.slices, func(s sliceStats) float64 { return s.P99us }), true)
	m["serve.tier_share.result"] = est.tierShare(tierRes)
	m["serve.tier_share.plan"] = est.tierShare(tierPlan)
	m["serve.tier_share.cold"] = est.tierShare(tierCold)
	st := ip.svc.Stats()
	m["serve.plan_evictions"] = float64(st.PlanEvictions)
	m["serve.sheds"] = float64(st.Sheds)
	m["serve.builder_wait_share"] = est.waitShare

	// The daemon.
	server := make([]float64, len(web.serverUS))
	for i, v := range web.serverUS {
		server[i] = float64(v)
	}
	all := append(slices.Clone(web.windows), web.traced...)
	httpP50 := medianOfWindows(all, func(w windowStats) float64 { return w.P50us })
	m["sitserve.estimate_us_p50"] = median(server)
	m["sitserve.overhead_us"] = httpP50 - m["sitserve.estimate_us_p50"]
	m["sitserve.startup_s"] = ms.startupS
	m["sitserve.rss_peak_mb"] = ms.rssMB

	// Tracing overhead: traced against untraced halves of the same run.
	p50us := func(w windowStats) float64 { return w.P50us }
	m["trace.overhead_pct"] = 100 * mean([]float64{
		relDiff(median(ph.tracedSecs), median(ph.seconds)),
		relDiff(medianOfWindows(est.traced, p50us), medianOfWindows(est.windows, p50us)),
		relDiff(medianOfWindows(web.traced, p50us), medianOfWindows(web.windows, p50us)),
	})
	return m, checks, nil
}

// relDiff is (got-base)/base, or 0 without a base.
func relDiff(got, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (got - base) / base
}
