package main

// metricDef names one reported metric. The tables below are the benchmark's
// contract; BENCHMARK.json at the repository root lists the same names, units
// and directions (a test keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // allowed worsening as a share of the parent's median (end-to-end only)
	what   string
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25, "generate tables, write CSV/segments, go build ./cmd/sitserve; median of 5 repeats"},
	{"create_s", "s", "lower", 0.25, "one creation pass with a fresh Builder: load -> advise -> schedule -> build -> persist; fastest of the measured passes"},
	{"est_p50_us", "us", "lower", 0.25, "in-process Service.Estimate latency: first decile over the 100 ms slices of the slice p50"},
	{"est_kops", "k/s", "higher", 0.25, "same slices, successful estimates per second, ninth decile"},
	{"http_p50_us", "us", "lower", 0.25, "GET /estimate round trip against sitserve: first decile over the 100 ms slices of the slice p50"},
	{"http_p99_us", "us", "lower", 0.25, "same, first decile of the slice p99"},
	{"http_krps", "k/s", "higher", 0.25, "same slices, 200-responses per second, ninth decile"},
}

var perLayerDefs = []metricDef{
	{name: "data.load_s", unit: "s", better: "lower", what: "LoadCatalog (CSV parse; ~0 for segment footers)"},
	{name: "data.scan_mrows_s", unit: "Mrows/s", better: "higher", what: "OpenChunks drain of the build's columns"},
	{name: "data.seg_bytes_per_row", unit: "count", better: "lower", what: "encoded SEG1 bytes per row of T1"},
	{name: "colblk.decode_mbps", unit: "MB/s", better: "higher", what: "colblk.Decode over 4096-value blocks"},
	{name: "colblk.encode_mbps", unit: "MB/s", better: "higher", what: "colblk.Choose+Append over 4096-value blocks"},
	{name: "histogram.build_s", unit: "s", better: "lower", what: "FromValues over the base columns a pass touches"},
	{name: "histogram.probe_ns_row", unit: "ns", better: "lower", what: "ContainmentMultiplicitySorted per probed row"},
	{name: "histogram.estimate_ns", unit: "ns", better: "lower", what: "Histogram.EstimateRange"},
	{name: "histogram.joincard_us", unit: "us", better: "lower", what: "histogram.JoinCardinality of two base histograms"},
	{name: "btree.bulkload_s", unit: "s", better: "lower", what: "btree.Build over T2.jprev"},
	{name: "btree.probe_ns_row", unit: "ns", better: "lower", what: "Tree.CountsSorted per probed row"},
	{name: "sample.add_ns_unit", unit: "ns", better: "lower", what: "Reservoir.AddWeighted per unit of multiplicity"},
	{name: "sample.mass", unit: "count", better: "lower", what: "multiplicity mass streamed to the consumers in one pass"},
	{name: "sample.adds", unit: "count", better: "lower", what: "values streamed with a positive multiplicity in one pass"},
	{name: "exec.join_mrows_s", unit: "Mrows/s", better: "higher", what: "AttrValuesOpts on the first 2-way generating query"},
	{name: "exec.sort_mrows_s", unit: "Mrows/s", better: "higher", what: "BatchSort of T2 on its join attribute"},
	{name: "exec.width_speedup", unit: "x", better: "higher", what: "the same join at width 1 over width nproc"},
	{name: "mem.spill_mb", unit: "MB", better: "lower", what: "RunStore.Stats spilled bytes of one pass"},
	{name: "mem.spill_ratio", unit: "x", better: "lower", what: "spilled over raw bytes"},
	{name: "mem.peak_mb", unit: "MB", better: "lower", what: "Governor.Peak of one pass"},
	{name: "sit.build_s", unit: "s", better: "lower", what: "Build/BuildGroup spans of one pass"},
	{name: "sit.build_other_s", unit: "s", better: "lower", what: "build spans minus their replayed children: unattributed time"},
	{name: "sit.shared_scan_saving", unit: "s", better: "higher", what: "Naive schedule build time minus Hybrid"},
	{name: "sit.persist_ms", unit: "ms", better: "lower", what: "SaveSITs + file write"},
	{name: "sit.refresh_s", unit: "s", better: "lower", what: "one Registry.Refresh cycle"},
	{name: "sit.planpin_ns", unit: "ns", better: "lower", what: "Registry.PlanPin"},
	{name: "advisor.candidates_ms", unit: "ms", better: "lower", what: "Advisor.Candidates + SelectCandidates"},
	{name: "sched.solve_ms", unit: "ms", better: "lower", what: "HybridSchedule"},
	{name: "sched.expansions", unit: "count", better: "lower", what: "A* states expanded"},
	{name: "sched.ms_per_krow", unit: "ms", better: "lower", what: "shared-scan wall time per 1000 scanned rows (the cost model says 1 unit)"},
	{name: "query.parse_us", unit: "us", better: "lower", what: "query.ParseExpr"},
	{name: "cardest.prepare_us", unit: "us", better: "lower", what: "Estimator.Prepare"},
	{name: "cardest.execute_ns", unit: "ns", better: "lower", what: "EstimatorPlan.Execute"},
	{name: "cardest.shapekey_ns", unit: "ns", better: "lower", what: "cardest.ShapeKey"},
	{name: "serve.result_hit_ns", unit: "ns", better: "lower", what: "in-process p50 of result-hit requests"},
	{name: "serve.plan_hit_ns", unit: "ns", better: "lower", what: "in-process p50 of plan-hit requests"},
	{name: "serve.cold_us", unit: "us", better: "lower", what: "in-process p50 of cold requests"},
	{name: "serve.est_p99_us", unit: "us", better: "lower", what: "in-process p99 of all requests: first decile over the slices of the slice p99 (too host-dependent for a bound)"},
	{name: "serve.tier_share.result", unit: "share", better: "higher", what: "share of in-process requests answered by the result cache"},
	{name: "serve.tier_share.plan", unit: "share", better: "higher", what: "share answered by a cached plan"},
	{name: "serve.tier_share.cold", unit: "share", better: "lower", what: "share that prepared a plan under the builder lock"},
	{name: "serve.plan_evictions", unit: "count", better: "lower", what: "Service.Stats plan evictions"},
	{name: "serve.sheds", unit: "count", better: "lower", what: "Service.Stats shed requests"},
	{name: "serve.builder_wait_share", unit: "share", better: "lower", what: "share of client wall time in calls longer than 1 ms"},
	{name: "sitserve.estimate_us_p50", unit: "us", better: "lower", what: "server-reported estimate time, median"},
	{name: "sitserve.overhead_us", unit: "us", better: "lower", what: "HTTP p50 minus server-reported time"},
	{name: "sitserve.startup_s", unit: "s", better: "lower", what: "exec to first 200 from /healthz"},
	{name: "sitserve.rss_peak_mb", unit: "MB", better: "lower", what: "daemon VmHWM"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", what: "traced against untraced create_s, est_p50_us, http_p50_us"},
}
