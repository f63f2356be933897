package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestGenRequestDeterministicAndQuantized(t *testing.T) {
	templates := chainTemplates(2000)
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		ra := genRequest(a, "http://x", templates, 250)
		rb := genRequest(b, "http://x", templates, 250)
		if ra != rb {
			t.Fatalf("request %d diverges under one seed:\n%s\n%s", i, ra, rb)
		}
		if !strings.Contains(ra, "/estimate?") || !strings.Contains(ra, "query=") {
			t.Fatalf("malformed request %s", ra)
		}
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	if p := percentile(vals, 50); p != 3 {
		t.Fatalf("p50 = %v, want 3", p)
	}
	if p := percentile(vals, 99); p != 5 {
		t.Fatalf("p99 = %v, want 5", p)
	}
	if p := percentile(nil, 50); p != 0 {
		t.Fatalf("empty p50 = %v, want 0", p)
	}
	if vals[0] != 5 {
		t.Fatal("percentile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	samples := []sample{
		{ms: 1, serverUS: 4, tier: "result-hit"},
		{ms: 2, serverUS: 6, tier: "result-hit"},
		{ms: 10, serverUS: 100, tier: "cold"},
		{err: http.ErrHandlerTimeout},
	}
	res := summarize(samples, 2, time.Second)
	if res.Errors != 1 || res.Requests != 4 {
		t.Fatalf("summary %+v", res)
	}
	if res.HitRatio != 2.0/3.0 {
		t.Fatalf("hit ratio %v, want 2/3", res.HitRatio)
	}
	if res.MissP50MS != 10 || res.HitP99MS != 2 {
		t.Fatalf("percentiles %+v", res)
	}
	if res.HitComputeP50US != 4 || res.MissComputeP50US != 100 {
		t.Fatalf("compute percentiles %+v", res)
	}
	if res.ComputeSpeedup != 25 {
		t.Fatalf("compute speedup %v, want 25", res.ComputeSpeedup)
	}
	if res.ResultHits != 2 || res.PlanHits != 0 || res.Cold != 1 {
		t.Fatalf("tier split %+v, want 2/0/1", res)
	}
}

func TestSummarizeTiers(t *testing.T) {
	samples := []sample{
		{ms: 1, serverUS: 2, tier: "result-hit"},
		{ms: 2, serverUS: 10, tier: "plan-hit"},
		{ms: 2, serverUS: 12, tier: "plan-hit"},
		{ms: 10, serverUS: 60, tier: "cold"},
	}
	res := summarize(samples, 1, time.Second)
	if res.ResultHits != 1 || res.PlanHits != 2 || res.Cold != 1 {
		t.Fatalf("tier split %+v, want 1/2/1", res)
	}
	if res.PlanHitP50US != 10 || res.ColdP50US != 60 {
		t.Fatalf("tier percentiles %+v", res)
	}
	if res.PlanSpeedup != 6 {
		t.Fatalf("plan speedup %v, want 6", res.PlanSpeedup)
	}
	// Plan hits computed, so they fold into the legacy miss bucket.
	if res.HitRatio != 0.25 || res.MissComputeP50US != 12 {
		t.Fatalf("legacy split %+v", res)
	}
}

// TestRunAgainstStub drives the full generator loop against a stub daemon,
// including the -json artifact.
func TestRunAgainstStub(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]bool{}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/estimate", func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.RawQuery
		mu.Lock()
		cached := seen[key]
		seen[key] = true
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if cached {
			_, _ = w.Write([]byte(`{"cardinality": 1, "tier": "result-hit", "estimate_us": 2}`))
		} else {
			_, _ = w.Write([]byte(`{"cardinality": 1, "tier": "cold", "estimate_us": 100}`))
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(srv.URL, "mix", 300, 50, 1, 2000, 500, out, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := filepath.Glob(out); err != nil {
		t.Fatal(err)
	}
}

// TestRunPlansWorkload drives the plans workload against a stub that mimics
// the three-tier daemon: first sight of a shape is cold, repeats of the
// exact query are result hits, new constants over a seen shape are plan
// hits. The summary must carry the tier split and speedup.
func TestRunPlansWorkload(t *testing.T) {
	var mu sync.Mutex
	seenShape := map[string]bool{}
	seenExact := map[string]bool{}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/estimate", func(w http.ResponseWriter, r *http.Request) {
		shape := r.URL.Query().Get("query")
		exact := r.URL.RawQuery
		mu.Lock()
		tier := "cold"
		switch {
		case seenExact[exact]:
			tier = "result-hit"
		case seenShape[shape]:
			tier = "plan-hit"
		}
		seenShape[shape], seenExact[exact] = true, true
		mu.Unlock()
		us := map[string]string{"cold": "100", "plan-hit": "10", "result-hit": "2"}[tier]
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"cardinality": 1, "tier": "` + tier + `", "estimate_us": ` + us + `}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(srv.URL, "plans", 200, 20, 1, 2000, 250, out, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Cold == 0 || res.PlanHits == 0 {
		t.Fatalf("tier split %+v: plans workload produced no cold or no plan-hit samples", res)
	}
	if res.PlanHits < res.Cold {
		t.Fatalf("tier split %+v: plans workload should be plan-hit heavy", res)
	}
	if res.PlanSpeedup != 10 {
		t.Fatalf("plan speedup %v, want 10 from the stub's timings", res.PlanSpeedup)
	}

	if err := run(srv.URL, "bogus", 1, 1, 1, 2000, 250, "", time.Second); err == nil {
		t.Fatal("unknown workload must fail")
	}
}
