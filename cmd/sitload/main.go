// Command sitload drives a running sitserve daemon with concurrent estimate
// requests and reports latency percentiles and the cache hit ratio:
//
//	sitload -url http://localhost:8642 -n 5000 -c 1000 [-seed 1] \
//	        [-workload mix] [-domain 2000] [-quantum 250] [-json BENCH_serve.json]
//
// Two workloads:
//
//   - mix (default): a seeded random mix of chain-join SPJ queries (the
//     shapes of the default synthetic chain database) with range predicates
//     quantized to -quantum, so a bounded key population repeats and
//     exercises the estimate result cache; -quantum 1 makes almost every
//     request distinct.
//   - plans: the same fixed expression set with unquantized constants, so
//     nearly every request misses the result cache but re-probes the shape's
//     cached plan — the plan-cache steady state. The summary reports the
//     plan-hit/result-hit/cold split and per-tier server-side estimate time,
//     including the plan-vs-cold speedup the tier exists for.
//
// Latencies are reported overall and split by serving tier. With -json the
// summary is also written as a JSON benchmark artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"sync"
	"time"
)

// now is the load generator's clock. Latency is wall-clock by definition and
// never part of a seed-deterministic result, so the read is sanctioned here
// once; everything else about the workload derives from -seed.
var now = time.Now //statcheck:ignore rawrand latency measurement is wall-clock by definition

// template is one query shape; preds names the attributes that get a random
// quantized range each.
type template struct {
	query string
	preds []pred
}

type pred struct {
	table, attr string
	domain      int64 // value domain the random ranges are drawn from
}

// chainTemplates are the query shapes of the default synthetic chain
// database (tables T1..T4 chained on jnext/jprev). The "a" payload spans the
// join domain; "b" is uniform over the payload domain.
func chainTemplates(domain int64) []template {
	join2 := "T1 JOIN T2 ON T1.jnext = T2.jprev"
	join23 := "T2 JOIN T3 ON T2.jnext = T3.jprev"
	join3 := "T1 JOIN T2 ON T1.jnext = T2.jprev JOIN T3 ON T2.jnext = T3.jprev"
	return []template{
		{query: join2, preds: []pred{{"T2", "a", domain}}},
		{query: join2, preds: []pred{{"T2", "a", domain}, {"T1", "b", 5 * domain}}},
		{query: join23, preds: []pred{{"T3", "a", domain}}},
		{query: join3, preds: []pred{{"T3", "a", domain}}},
		{query: join3, preds: []pred{{"T3", "a", domain}, {"T2", "a", domain}}},
	}
}

// genRequest renders one random request URL from the seeded generator.
func genRequest(rng *rand.Rand, base string, templates []template, quantum int64) string {
	t := templates[rng.Intn(len(templates))]
	v := url.Values{"query": {t.query}}
	predStr := ""
	for i, p := range t.preds {
		steps := p.domain / quantum
		if steps < 1 {
			steps = 1
		}
		lo := quantum * rng.Int63n(steps)
		hi := lo + quantum*(1+rng.Int63n(steps-lo/quantum))
		if i > 0 {
			predStr += ","
		}
		predStr += fmt.Sprintf("%s.%s:%d:%d", p.table, p.attr, lo, hi)
	}
	if predStr != "" {
		v.Set("pred", predStr)
	}
	return base + "/estimate?" + v.Encode()
}

// sample is one completed request.
type sample struct {
	ms       float64 // end-to-end latency
	serverUS float64 // server-side estimate time (cache probe or computation)
	tier     string  // serving tier: "result-hit", "plan-hit", or "cold"
	err      error
}

// result is the benchmark summary, written as JSON with -json.
type result struct {
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	Errors      int     `json:"errors"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	Throughput  float64 `json:"requests_per_sec"`
	HitRatio    float64 `json:"hit_ratio"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	HitP50MS    float64 `json:"hit_p50_ms"`
	HitP99MS    float64 `json:"hit_p99_ms"`
	MissP50MS   float64 `json:"miss_p50_ms"`
	MissP99MS   float64 `json:"miss_p99_ms"`
	// Server-side estimate time, split by cache outcome: the cache's
	// compute saving without HTTP round-trip noise. ComputeSpeedup is
	// miss p50 over hit p50.
	HitComputeP50US  float64 `json:"hit_compute_p50_us"`
	HitComputeP99US  float64 `json:"hit_compute_p99_us"`
	MissComputeP50US float64 `json:"miss_compute_p50_us"`
	MissComputeP99US float64 `json:"miss_compute_p99_us"`
	ComputeSpeedup   float64 `json:"compute_speedup"`
	// Per-tier split: how many requests each serving tier answered and its
	// server-side estimate time. PlanSpeedup is cold p50 over plan-hit p50 —
	// the compute the prepare/execute split saves once a shape's plan is
	// cached.
	ResultHits     int     `json:"result_hits"`
	PlanHits       int     `json:"plan_hits"`
	Cold           int     `json:"cold"`
	ResultHitP50US float64 `json:"result_hit_p50_us"`
	ResultHitP99US float64 `json:"result_hit_p99_us"`
	PlanHitP50US   float64 `json:"plan_hit_p50_us"`
	PlanHitP99US   float64 `json:"plan_hit_p99_us"`
	ColdP50US      float64 `json:"cold_p50_us"`
	ColdP99US      float64 `json:"cold_p99_us"`
	PlanSpeedup    float64 `json:"plan_speedup"`
}

func main() {
	var (
		baseURL  = flag.String("url", "http://localhost:8642", "sitserve base URL")
		n        = flag.Int("n", 5000, "total requests")
		c        = flag.Int("c", 1000, "concurrent requests in flight")
		seed     = flag.Int64("seed", 1, "workload seed")
		workload = flag.String("workload", "mix", `workload shape: "mix" (quantized constants, result-cache heavy) or "plans" (fixed expressions, fresh constants each request — plan-cache heavy)`)
		domain   = flag.Int64("domain", 2000, "predicate value domain (the chain DB join domain)")
		quantum  = flag.Int64("quantum", 250, "predicate range granularity; smaller = more distinct queries, fewer cache hits")
		jsonPath = flag.String("json", "", "also write the summary to this JSON file")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request timeout")
	)
	flag.Parse()
	if err := run(*baseURL, *workload, *n, *c, *seed, *domain, *quantum, *jsonPath, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "sitload:", err)
		os.Exit(1)
	}
}

func run(baseURL, workload string, n, c int, seed, domain, quantum int64, jsonPath string, timeout time.Duration) error {
	if n <= 0 || c <= 0 {
		return fmt.Errorf("-n and -c must be positive")
	}
	if quantum <= 0 || domain <= 0 || quantum > domain {
		return fmt.Errorf("need 0 < -quantum <= -domain")
	}
	switch workload {
	case "mix":
	case "plans":
		// Fixed expression set, fresh constants every request: nearly every
		// request misses the result cache and executes the shape's plan.
		quantum = 1
	default:
		return fmt.Errorf("unknown -workload %q (want mix or plans)", workload)
	}
	if c > n {
		c = n
	}
	client := &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        c,
			MaxIdleConnsPerHost: c,
		},
	}
	if err := healthcheck(client, baseURL); err != nil {
		return err
	}

	// Every worker renders its own request stream from a distinct
	// deterministic seed, so the union workload is reproducible at any
	// concurrency (the interleaving is not — that's the point of the test).
	templates := chainTemplates(domain)
	samples := make([]sample, n)
	var wg sync.WaitGroup
	start := now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			// Worker w owns samples[w], samples[w+c], ... — no contention.
			for i := w; i < n; i += c {
				samples[i] = one(client, genRequest(rng, baseURL, templates, quantum))
			}
		}(w)
	}
	wg.Wait()
	elapsed := now().Sub(start)

	res := summarize(samples, c, elapsed)
	fmt.Printf("%d requests, %d concurrent, %d errors in %.1fms (%.0f req/s)\n",
		res.Requests, res.Concurrency, res.Errors, res.ElapsedMS, res.Throughput)
	fmt.Printf("cache hit ratio %.3f\n", res.HitRatio)
	fmt.Printf("latency    p50 %8.3fms  p99 %8.3fms\n", res.P50MS, res.P99MS)
	fmt.Printf("  hits     p50 %8.3fms  p99 %8.3fms\n", res.HitP50MS, res.HitP99MS)
	fmt.Printf("  misses   p50 %8.3fms  p99 %8.3fms\n", res.MissP50MS, res.MissP99MS)
	fmt.Printf("server estimate time: hit p50 %.1fus, miss p50 %.1fus (%.1fx speedup from cache)\n",
		res.HitComputeP50US, res.MissComputeP50US, res.ComputeSpeedup)
	fmt.Printf("tiers: %d result-hit / %d plan-hit / %d cold\n", res.ResultHits, res.PlanHits, res.Cold)
	fmt.Printf("  result-hit p50 %8.1fus  p99 %8.1fus\n", res.ResultHitP50US, res.ResultHitP99US)
	fmt.Printf("  plan-hit   p50 %8.1fus  p99 %8.1fus\n", res.PlanHitP50US, res.PlanHitP99US)
	fmt.Printf("  cold       p50 %8.1fus  p99 %8.1fus\n", res.ColdP50US, res.ColdP99US)
	if workload == "plans" {
		verdict := "PASS"
		if res.PlanSpeedup < 3 {
			verdict = "FAIL"
		}
		fmt.Printf("acceptance: plan-hit p50 %.1fus vs cold p50 %.1fus — %.1fx speedup (want >= 3x): %s\n",
			res.PlanHitP50US, res.ColdP50US, res.PlanSpeedup, verdict)
	}
	for _, s := range samples {
		if s.err != nil {
			fmt.Fprintln(os.Stderr, "sitload: first error:", s.err)
			break
		}
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", jsonPath)
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", res.Errors, res.Requests)
	}
	return nil
}

func healthcheck(client *http.Client, baseURL string) error {
	resp, err := client.Get(baseURL + "/healthz")
	if err != nil {
		return fmt.Errorf("sitserve not reachable at %s: %w", baseURL, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz returned %s", resp.Status)
	}
	return nil
}

// one issues a single estimate request and classifies the reply.
func one(client *http.Client, target string) sample {
	t0 := now()
	resp, err := client.Get(target)
	if err != nil {
		return sample{err: err}
	}
	var body struct {
		Tier       string  `json:"tier"`
		EstimateUS float64 `json:"estimate_us"`
		Error      string  `json:"error"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&body)
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	ms := float64(now().Sub(t0)) / float64(time.Millisecond)
	switch {
	case resp.StatusCode != http.StatusOK:
		return sample{ms: ms, err: fmt.Errorf("%s: %s %s", target, resp.Status, body.Error)}
	case decErr != nil:
		return sample{ms: ms, err: fmt.Errorf("%s: decoding response: %v", target, decErr)}
	}
	return sample{ms: ms, serverUS: body.EstimateUS, tier: body.Tier}
}

func summarize(samples []sample, c int, elapsed time.Duration) result {
	// The legacy hit/miss split folds the tiers in two: a "hit" is a
	// result-cache hit, a "miss" is anything that computed (plan-hit or cold).
	var all, hits, misses, hitUS, missUS []float64
	var resultUS, planUS, coldUS []float64
	res := result{Requests: len(samples), Concurrency: c}
	for _, s := range samples {
		if s.err != nil {
			res.Errors++
			continue
		}
		all = append(all, s.ms)
		switch s.tier {
		case "result-hit":
			res.ResultHits++
			hits = append(hits, s.ms)
			hitUS = append(hitUS, s.serverUS)
			resultUS = append(resultUS, s.serverUS)
		case "plan-hit":
			res.PlanHits++
			misses = append(misses, s.ms)
			missUS = append(missUS, s.serverUS)
			planUS = append(planUS, s.serverUS)
		default:
			res.Cold++
			misses = append(misses, s.ms)
			missUS = append(missUS, s.serverUS)
			coldUS = append(coldUS, s.serverUS)
		}
	}
	res.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	if res.ElapsedMS > 0 {
		res.Throughput = float64(len(all)) / (res.ElapsedMS / 1000)
	}
	if len(all) > 0 {
		res.HitRatio = float64(len(hits)) / float64(len(all))
	}
	res.P50MS, res.P99MS = percentile(all, 50), percentile(all, 99)
	res.HitP50MS, res.HitP99MS = percentile(hits, 50), percentile(hits, 99)
	res.MissP50MS, res.MissP99MS = percentile(misses, 50), percentile(misses, 99)
	res.HitComputeP50US, res.HitComputeP99US = percentile(hitUS, 50), percentile(hitUS, 99)
	res.MissComputeP50US, res.MissComputeP99US = percentile(missUS, 50), percentile(missUS, 99)
	if res.HitComputeP50US > 0 {
		res.ComputeSpeedup = res.MissComputeP50US / res.HitComputeP50US
	}
	res.ResultHitP50US, res.ResultHitP99US = percentile(resultUS, 50), percentile(resultUS, 99)
	res.PlanHitP50US, res.PlanHitP99US = percentile(planUS, 50), percentile(planUS, 99)
	res.ColdP50US, res.ColdP99US = percentile(coldUS, 50), percentile(coldUS, 99)
	if res.PlanHitP50US > 0 {
		res.PlanSpeedup = res.ColdP50US / res.PlanHitP50US
	}
	return res
}

// percentile returns the p-th percentile (nearest-rank) of the values, or 0
// for an empty set.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}
