package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/sitstats/sits"
	"github.com/sitstats/sits/internal/cliopt"
)

func newTestServer(t testing.TB) (http.Handler, *sits.Catalog) {
	t.Helper()
	cat, err := sits.GenerateChainDB(sits.DefaultChainConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg, err := sits.NewRegistry(cat, sits.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
	})
	spec, err := sits.ParseSIT("T2.a | T1 JOIN T2 ON T1.jnext = T2.jprev")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get(spec, sits.SweepFull); err != nil {
		t.Fatal(err)
	}
	svc, err := sits.NewService(reg, sits.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return newServer(svc, 0.2), cat
}

func getJSON(t *testing.T, h http.Handler, method, target, body string, wantStatus int, out any) http.Header {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != wantStatus {
		t.Fatalf("%s %s: status %d (body %s), want %d", method, target, rr.Code, rr.Body.String(), wantStatus)
	}
	if out != nil {
		if err := json.Unmarshal(rr.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, target, rr.Body.String(), err)
		}
	}
	return rr.Header()
}

func estimateURL(preds string) string {
	v := url.Values{"query": {"T1 JOIN T2 ON T1.jnext = T2.jprev"}}
	if preds != "" {
		v.Set("pred", preds)
	}
	return "/estimate?" + v.Encode()
}

func TestServerEstimate(t *testing.T) {
	h, _ := newTestServer(t)

	var first, second, posted estimateResponse
	getJSON(t, h, http.MethodGet, estimateURL("T2.a:0:900"), "", http.StatusOK, &first)
	if first.Cardinality <= 0 {
		t.Fatalf("cardinality %v, want > 0", first.Cardinality)
	}
	if first.Tier != "cold" {
		t.Fatalf("cold request reported tier=%q", first.Tier)
	}
	if len(first.Sources) != 1 || !strings.Contains(first.Sources[0].Stat, "SIT") {
		t.Fatalf("sources %+v, want one SIT-backed predicate", first.Sources)
	}

	getJSON(t, h, http.MethodGet, estimateURL("T2.a:0:900"), "", http.StatusOK, &second)
	if second.Tier != "result-hit" {
		t.Fatalf("repeat request reported tier=%q", second.Tier)
	}
	if second.Cardinality != first.Cardinality || second.JoinCard != first.JoinCard {
		t.Fatalf("cached answer differs: %+v vs %+v", second, first)
	}

	// New constants over the same shape re-probe the cached plan.
	var planned estimateResponse
	getJSON(t, h, http.MethodGet, estimateURL("T2.a:10:910"), "", http.StatusOK, &planned)
	if planned.Tier != "plan-hit" {
		t.Fatalf("shifted constants reported tier=%q, want plan-hit", planned.Tier)
	}

	// The POST body form answers identically and shares the cache entry.
	body := `{"query": "T1 JOIN T2 ON T1.jnext = T2.jprev", "preds": [{"table":"T2","attr":"a","lo":0,"hi":900}]}`
	getJSON(t, h, http.MethodPost, "/estimate", body, http.StatusOK, &posted)
	if posted.Tier != "result-hit" || posted.Cardinality != first.Cardinality {
		t.Fatalf("POST form diverges from GET: %+v vs %+v", posted, first)
	}
}

func TestServerErrors(t *testing.T) {
	h, _ := newTestServer(t)
	getJSON(t, h, http.MethodGet, "/estimate", "", http.StatusBadRequest, nil)
	getJSON(t, h, http.MethodGet, "/estimate?query=not+a+join", "", http.StatusBadRequest, nil)
	getJSON(t, h, http.MethodGet, estimateURL("T2.a:bad:0"), "", http.StatusBadRequest, nil)
	getJSON(t, h, http.MethodGet, estimateURL("T9.a:0:1"), "", http.StatusUnprocessableEntity, nil)
	getJSON(t, h, http.MethodGet, estimateURL("T2.a:9:0"), "", http.StatusUnprocessableEntity, nil)
	getJSON(t, h, http.MethodGet, estimateURL("T2.zz:0:1"), "", http.StatusUnprocessableEntity, nil)
	getJSON(t, h, http.MethodGet, "/estimate?"+url.Values{"query": {"T1 JOIN T2 ON T1.nocol = T2.jprev"}}.Encode(), "",
		http.StatusUnprocessableEntity, nil)
	// Two ranges on one column are refused, not multiplied as if
	// independent: the disjoint pair used to answer 2 962.8 where the truth
	// is 0, and a repeated range squared its selectivity.
	getJSON(t, h, http.MethodGet, estimateURL("T2.a:0:900,T2.a:1000:2000"), "", http.StatusBadRequest, nil)
	getJSON(t, h, http.MethodGet, estimateURL("T2.a:0:900,T2.a:0:900"), "", http.StatusBadRequest, nil)
	getJSON(t, h, http.MethodPost, "/estimate", `{"query": "T1 JOIN T2 ON T1.jnext = T2.jprev", "preds": [`+
		`{"table":"T2","attr":"a","lo":0,"hi":900},{"table":"T1","attr":"b","lo":0,"hi":50},`+
		`{"table":"T2","attr":"a","lo":1000,"hi":2000}]}`, http.StatusBadRequest, nil)
	for _, c := range []struct{ method, path, allow string }{
		{http.MethodDelete, "/estimate", "GET, POST"},
		{http.MethodPost, "/stats", "GET"},
		{http.MethodGet, "/refresh", "POST"},
	} {
		if allow := getJSON(t, h, c.method, c.path, "", http.StatusMethodNotAllowed, nil).Get("Allow"); allow != c.allow {
			t.Errorf("%s %s: Allow %q, want %q", c.method, c.path, allow, c.allow)
		}
	}

	// POST bodies decode strictly: a misspelt field or data after the object
	// is refused rather than answered without the predicates.
	query := `"query": "T1 JOIN T2 ON T1.jnext = T2.jprev"`
	preds := `[{"table":"T2","attr":"a","lo":0,"hi":900}]`
	getJSON(t, h, http.MethodPost, "/estimate", `{`+query+`, "pred": `+preds+`}`, http.StatusBadRequest, nil)
	getJSON(t, h, http.MethodPost, "/estimate", `{`+query+`, "preds": `+preds+`} junk`, http.StatusBadRequest, nil)
	getJSON(t, h, http.MethodPost, "/estimate", `{`+query+`, "preds": `+preds+`}{}`, http.StatusBadRequest, nil)
	getJSON(t, h, http.MethodPost, "/estimate", `{`+query+`, "preds": `+preds+"}\n", http.StatusOK, nil)

	// A POST body past the 1 MiB bound is refused, not buffered, and the
	// server answers the next request as usual.
	huge := `{"query": "T1 JOIN T2 ON T1.jnext = T2.jprev", "preds": [` +
		strings.Repeat(`{"table":"T2","attr":"a","lo":0,"hi":900},`, maxEstimateBody/40) +
		`{"table":"T2","attr":"a","lo":0,"hi":900}]}`
	getJSON(t, h, http.MethodPost, "/estimate", huge, http.StatusRequestEntityTooLarge, nil)
	getJSON(t, h, http.MethodGet, estimateURL("T2.a:0:900"), "", http.StatusOK, nil)
}

// TestServerRejectsUnjoinedTable asserts that a query whose ON clause does
// not reference the table its JOIN names is a bad request: the parser used to
// drop that table and answer for a different expression.
func TestServerRejectsUnjoinedTable(t *testing.T) {
	h, _ := newTestServer(t)
	for _, q := range []string{
		"T1 JOIN T9 ON T1.jnext = T2.jprev",
		"T1 JOIN T2 ON T1.jnext = T2.jprev JOIN T3 ON T1.jnext = T2.jprev",
	} {
		getJSON(t, h, http.MethodGet, "/estimate?"+url.Values{"query": {q}}.Encode(), "", http.StatusBadRequest, nil)
	}
}

func TestServerStatsAndRefresh(t *testing.T) {
	h, cat := newTestServer(t)

	var est estimateResponse
	getJSON(t, h, http.MethodGet, estimateURL("T2.a:0:500"), "", http.StatusOK, &est)
	getJSON(t, h, http.MethodGet, estimateURL("T2.a:0:500"), "", http.StatusOK, &est)

	var stats sits.ServeStats
	getJSON(t, h, http.MethodGet, "/stats", "", http.StatusOK, &stats)
	if stats.Hits != 1 || stats.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss", stats)
	}
	epoch := stats.Registry.Epoch

	// A no-op sweep first, then growth past the threshold forces a rebuild.
	var ref refreshResponse
	getJSON(t, h, http.MethodPost, "/refresh", "", http.StatusOK, &ref)
	if len(ref.Rebuilt) != 0 || ref.Epoch != epoch {
		t.Fatalf("fresh sweep rebuilt %v at epoch %d", ref.Rebuilt, ref.Epoch)
	}
	t1 := cat.MustTable("T1")
	row, err := t1.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := 0, t1.NumRows()/2; i < n; i++ {
		if err := t1.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	getJSON(t, h, http.MethodPost, "/refresh", "", http.StatusOK, &ref)
	if len(ref.Rebuilt) != 1 || ref.Epoch != epoch+1 {
		t.Fatalf("sweep after growth: rebuilt %v epoch %d, want 1 spec at epoch %d", ref.Rebuilt, ref.Epoch, epoch+1)
	}

	// The rebuilt SIT strands the old cache entry: next request recomputes.
	getJSON(t, h, http.MethodGet, estimateURL("T2.a:0:500"), "", http.StatusOK, &est)
	if est.Tier == "result-hit" {
		t.Fatal("post-refresh request served the stale cache entry")
	}

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusOK || rr.Body.String() != "ok\n" {
		t.Fatalf("healthz: %d %q", rr.Code, rr.Body.String())
	}
}

// TestServerOverload floods a budget-starved server whose builder is held:
// cold requests past the queue bound must shed with 429 + Retry-After, the
// liveness probe must stay green throughout, and once the builder frees the
// queued request completes and no request goroutines are left behind.
func TestServerOverload(t *testing.T) {
	cat, err := sits.GenerateChainDB(sits.DefaultChainConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sits.DefaultConfig()
	cfg.MemBudget = 1 // the governor can never admit a build probe
	reg, err := sits.NewRegistry(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
	})
	svc, err := sits.NewService(reg, sits.ServeConfig{ShedQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(svc, 0.2)
	baseline := runtime.NumGoroutine()

	// Hold the builder so cold requests pile up behind it.
	release := make(chan struct{})
	held := make(chan struct{})
	builderDone := make(chan error, 1)
	go func() {
		builderDone <- reg.WithBuilder(func(*sits.Builder) error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held

	// One request queues on the held builder; it must eventually succeed.
	queuedDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, estimateURL("T2.a:0:900"), nil))
		queuedDone <- rr
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never queued on the builder")
		}
		time.Sleep(time.Millisecond)
	}

	// Flood with distinct cold queries: every one sheds with a backoff hint,
	// and liveness never degrades.
	const flood = 32
	for i := 0; i < flood; i++ {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, estimateURL(fmt.Sprintf("T2.a:0:%d", 100+i)), nil))
		if rr.Code != http.StatusTooManyRequests {
			t.Fatalf("flood request %d: status %d (body %s), want 429", i, rr.Code, rr.Body.String())
		}
		if rr.Header().Get("Retry-After") == "" {
			t.Fatalf("flood request %d: 429 without Retry-After", i)
		}
		health := httptest.NewRecorder()
		h.ServeHTTP(health, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if health.Code != http.StatusOK {
			t.Fatalf("healthz degraded to %d mid-flood", health.Code)
		}
	}
	var stats sits.ServeStats
	getJSON(t, h, http.MethodGet, "/stats", "", http.StatusOK, &stats)
	if stats.Sheds != flood || stats.Queued != 1 {
		t.Fatalf("stats %+v, want %d sheds and 1 queued", stats, flood)
	}

	// Free the builder: the queued request completes, nothing leaks.
	close(release)
	if err := <-builderDone; err != nil {
		t.Fatal(err)
	}
	rr := <-queuedDone
	if rr.Code != http.StatusOK {
		t.Fatalf("queued request: status %d (body %s), want 200", rr.Code, rr.Body.String())
	}
	var est estimateResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &est); err != nil {
		t.Fatal(err)
	}
	if est.Tier != "cold" || est.Cardinality <= 0 {
		t.Fatalf("queued request answered tier=%q cardinality=%v", est.Tier, est.Cardinality)
	}
	for deadline = time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline+2; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after the flood", baseline, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunRejectsBadStaleThreshold: a staleness threshold no sweep can use
// fails startup before the catalog is loaded or a port is bound. The data
// directory does not exist, so a startup that got as far as loading the
// catalog fails with a different error.
func TestRunRejectsBadStaleThreshold(t *testing.T) {
	for _, threshold := range []float64{math.NaN(), -1} {
		fs := flag.NewFlagSet("sitserve", flag.ContinueOnError)
		eng := cliopt.Register(fs, 1)
		eng.RegisterData(fs)
		if err := fs.Parse([]string{"-csv", filepath.Join(t.TempDir(), "missing")}); err != nil {
			t.Fatal(err)
		}
		err := run(options{addr: "127.0.0.1:0", threshold: threshold, eng: eng})
		if err == nil || !strings.Contains(err.Error(), "-stale-threshold") {
			t.Errorf("threshold %v: run returned %v, want a -stale-threshold error", threshold, err)
		}
	}
}

// FuzzEstimateRequest drives arbitrary GET query strings and POST bodies
// through the handler. Bad input answers 4xx, never 5xx or a panic; a 200
// carries a whole estimate; and a body past maxEstimateBody answers 413
// whatever it holds. pad appends up to 2 MiB of spaces to the body, so the
// mutator reaches both sides of the bound. The checked-in seeds pad a bad
// value ("0", once a 400) and a valid object (once a 200) past the bound: a
// streaming decoder stopped reading before it.
func FuzzEstimateRequest(f *testing.F) {
	h, _ := newTestServer(f)
	get := func(preds string) string { return strings.TrimPrefix(estimateURL(preds), "/estimate?") }
	f.Add(false, get("T2.a:0:900"), []byte(nil), uint32(0))
	f.Add(false, get("T2.a:0:900,T1.b:10:20"), []byte(nil), uint32(0))
	f.Add(false, get("T9.a:0:1"), []byte(nil), uint32(0))
	f.Add(false, "query=T1+JOIN+T9+ON+T1.a+%3D+T2.b", []byte(nil), uint32(0))
	f.Add(true, "", []byte(`{"query": "T1 JOIN T2 ON T1.jnext = T2.jprev", "preds": [{"table":"T2","attr":"a","lo":0,"hi":900}]}`), uint32(0))
	f.Add(true, "", []byte(`{"query": "T1 JOIN T2 ON T1.jnext = T2.jprev", "pred": []}`), uint32(0))
	f.Add(true, "", []byte(`{"query": "T1 JOIN T2 ON T1.jnext = T2.jprev"} junk`), uint32(0))
	f.Fuzz(func(t *testing.T, post bool, query string, body []byte, pad uint32) {
		method := http.MethodGet
		if post {
			method = http.MethodPost
		}
		n := int64(pad % (2 * maxEstimateBody))
		req := httptest.NewRequest(method, "/estimate",
			io.MultiReader(bytes.NewReader(body), io.LimitReader(spaces{}, n)))
		req.URL.RawQuery = query
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code >= 500 {
			t.Fatalf("%s ?%q body %q: status %d (%s)", method, query, body, rr.Code, rr.Body.String())
		}
		var est estimateResponse
		if rr.Code == http.StatusOK && json.Unmarshal(rr.Body.Bytes(), &est) != nil {
			t.Fatalf("%s ?%q body %q: 200 with body %q", method, query, body, rr.Body.String())
		}
		if post && int64(len(body))+n > maxEstimateBody && rr.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST body of %d bytes: status %d, want 413", int64(len(body))+n, rr.Code)
		}
	})
}

// spaces is an endless stream of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}
