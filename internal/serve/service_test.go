package serve

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/sitstats/sits/internal/cardest"
	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/datagen"
	"github.com/sitstats/sits/internal/query"
	"github.com/sitstats/sits/internal/sit"
)

var serveSpecs = []string{
	"T2.a | T1 JOIN T2 ON T1.jnext = T2.jprev",
	"T3.a | T2 JOIN T3 ON T2.jnext = T3.jprev",
	"T3.a | T1 JOIN T2 ON T1.jnext = T2.jprev JOIN T3 ON T2.jnext = T3.jprev",
}

// newChainService builds a registry over a fresh chain DB, populates it with
// the test SIT set, and fronts it with a service.
func newChainService(t *testing.T, scfg sit.Config) (*Service, *data.Catalog) {
	t.Helper()
	cat, err := datagen.ChainDB(datagen.DefaultChainConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg, err := sit.NewRegistry(cat, scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
	})
	for _, text := range serveSpecs {
		spec, err := query.ParseSIT(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Get(spec, sit.SweepFull); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := NewService(reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return svc, cat
}

func mustExpr(t *testing.T, s string) *query.Expr {
	t.Helper()
	e, err := query.ParseExpr(s)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func testQueries(t *testing.T) []cardest.SPJQuery {
	t.Helper()
	join2 := mustExpr(t, "T1 JOIN T2 ON T1.jnext = T2.jprev")
	join3 := mustExpr(t, "T1 JOIN T2 ON T1.jnext = T2.jprev JOIN T3 ON T2.jnext = T3.jprev")
	return []cardest.SPJQuery{
		{Expr: join2, Preds: []cardest.Predicate{{Table: "T2", Attr: "a", Lo: 0, Hi: 900}}},
		{Expr: join2, Preds: []cardest.Predicate{
			{Table: "T2", Attr: "a", Lo: 100, Hi: 1500},
			{Table: "T1", Attr: "b", Lo: 0, Hi: 5000},
		}},
		{Expr: join3, Preds: []cardest.Predicate{
			{Table: "T3", Attr: "a", Lo: 0, Hi: 1200},
			{Table: "T2", Attr: "a", Lo: 50, Hi: 1900},
		}},
		{Expr: join3, Preds: nil},
	}
}

// shifted returns the query with every predicate range moved by delta: the
// same shape (expression + columns) with different constants, so a service
// that has the shape's plan cached answers it from the plan tier.
func shifted(q cardest.SPJQuery, delta int64) cardest.SPJQuery {
	preds := append([]cardest.Predicate(nil), q.Preds...)
	for i := range preds {
		preds[i].Lo += delta
		preds[i].Hi += delta
	}
	return cardest.SPJQuery{Expr: q.Expr, Preds: preds}
}

// quarterWS is roughly a quarter of the default chain database's working set
// (2900 rows x 4 columns x 8 bytes): tight enough that builds and estimates
// run through the governor's spill machinery.
const quarterWS = 24 << 10

// TestTieredEstimatesBitIdentical asserts the core serving guarantee: no
// tier ever changes an answer. For every query the cold estimate, the result
// hit, the plan hit (same shape, shifted constants), a permuted-predicate
// request, and a from-scratch cardest estimator over the same registry must
// all be bit-identical — across execution widths {1, 4} and memory budgets
// {unlimited, quarter-WS}.
func TestTieredEstimatesBitIdentical(t *testing.T) {
	var configs []sit.Config
	for _, par := range []int{1, 4} {
		for _, budget := range []int64{0, quarterWS} {
			c := sit.DefaultConfig()
			c.Parallelism = par
			c.MemBudget = budget
			configs = append(configs, c)
		}
	}
	var baseline, baselineShift []cardest.Estimate
	for ci, scfg := range configs {
		cached, _ := newChainService(t, scfg)
		ref, err := cardest.ForRegistry(cached.Registry())
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range testQueries(t) {
			cold, tier, err := cached.Estimate(q)
			if err != nil {
				t.Fatal(err)
			}
			if tier != TierCold {
				t.Fatalf("config %d query %d: first request served from %v, want cold", ci, qi, tier)
			}
			hit, tier, err := cached.Estimate(q)
			if err != nil {
				t.Fatal(err)
			}
			if tier != TierResult {
				t.Fatalf("config %d query %d: repeat request served from %v, want result-hit", ci, qi, tier)
			}
			raw, err := ref.Estimate(normalize(q))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cold, hit) || !reflect.DeepEqual(cold, raw) {
				t.Fatalf("config %d query %d: served and reference estimates diverge:\ncold %+v\nhit  %+v\nraw  %+v",
					ci, qi, cold, hit, raw)
			}
			if len(q.Preds) > 1 {
				perm := cardest.SPJQuery{Expr: q.Expr, Preds: []cardest.Predicate{q.Preds[1], q.Preds[0]}}
				got, tier, err := cached.Estimate(perm)
				if err != nil {
					t.Fatal(err)
				}
				if tier != TierResult {
					t.Fatalf("config %d query %d: permuted predicates served from %v, want result-hit", ci, qi, tier)
				}
				if !reflect.DeepEqual(got, cold) {
					t.Fatalf("config %d query %d: permuted predicates changed the estimate", ci, qi)
				}
			}
			// Same shape, new constants: must execute the cached plan, and the
			// probe must be bit-identical to a full cold estimation.
			var planned cardest.Estimate
			if len(q.Preds) > 0 {
				qv := shifted(q, 7)
				var tier Tier
				planned, tier, err = cached.Estimate(qv)
				if err != nil {
					t.Fatal(err)
				}
				if tier != TierPlan {
					t.Fatalf("config %d query %d: shifted constants served from %v, want plan-hit", ci, qi, tier)
				}
				rawShift, err := ref.Estimate(normalize(qv))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(planned, rawShift) {
					t.Fatalf("config %d query %d: plan-hit diverges from cold estimation:\nplan %+v\ncold %+v",
						ci, qi, planned, rawShift)
				}
				// The plan tier populates the result cache too.
				if _, tier, err := cached.Estimate(qv); err != nil || tier != TierResult {
					t.Fatalf("config %d query %d: repeat of plan-hit served from %v err=%v", ci, qi, tier, err)
				}
			}
			// Estimates must not depend on the build configuration either.
			if ci == 0 {
				baseline = append(baseline, cold)
				baselineShift = append(baselineShift, planned)
			} else if !reflect.DeepEqual(cold, baseline[qi]) || !reflect.DeepEqual(planned, baselineShift[qi]) {
				t.Fatalf("query %d: estimate differs between configs:\n%+v\n%+v", qi, cold, baseline[qi])
			}
		}
	}
}

// TestCacheInvalidation asserts both invalidation inputs of the pin: a
// base-table mutation (generation bump) and a SIT refresh (epoch bump) each
// force the next identical request to recompute — through the cold tier,
// because the plan is keyed on the same pin as the result.
func TestCacheInvalidation(t *testing.T) {
	svc, cat := newChainService(t, sit.DefaultConfig())
	q := testQueries(t)[0]

	if _, tier, err := svc.Estimate(q); err != nil || tier != TierCold {
		t.Fatalf("first estimate: tier=%v err=%v", tier, err)
	}
	if _, tier, err := svc.Estimate(q); err != nil || tier != TierResult {
		t.Fatalf("repeat estimate: tier=%v err=%v", tier, err)
	}

	// A mutation anywhere in the query's tables moves the generation and
	// with it the pin both keys embed.
	t1 := cat.MustTable("T1")
	row, err := t1.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.AppendRow(row...); err != nil {
		t.Fatal(err)
	}
	if _, tier, err := svc.Estimate(q); err != nil || tier != TierCold {
		t.Fatalf("estimate after mutation: tier=%v err=%v (stale entry served)", tier, err)
	}

	// A refresh that rebuilds SITs moves the epoch.
	n := t1.NumRows() / 2
	for i := 0; i < n; i++ {
		if err := t1.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt, err := svc.Registry().Refresh(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) == 0 {
		t.Fatal("refresh rebuilt nothing after 50% growth")
	}
	if _, tier, err := svc.Estimate(q); err != nil || tier != TierCold {
		t.Fatalf("estimate after refresh: tier=%v err=%v (pre-refresh entry served)", tier, err)
	}
	st := svc.Stats()
	if st.Hits != 1 || st.PlanHits != 0 || st.Misses != 3 {
		t.Fatalf("stats %+v, want 1 hit / 0 plan hits / 3 misses", st)
	}
	// Nothing was evicted: the plans and results under the two stale pins
	// are stranded until the LRU bound reclaims them.
	if st.PlanEvictions != 0 || st.PlanEntries != 3 || st.Entries != 3 {
		t.Fatalf("stats %+v, want 0 plan evictions and 3 plans / 3 results resident", st)
	}
}

// TestPlanInvalidationExact asserts which changes retire a cached plan: a
// data mutation retires exactly the plans over the mutated table, while a
// plan over untouched tables keeps serving; any adopt or refresh publishes a
// new epoch and retires every plan. Retired plans are stranded under their
// old pin, never evicted.
func TestPlanInvalidationExact(t *testing.T) {
	svc, cat := newChainService(t, sit.DefaultConfig())
	qA := testQueries(t)[0] // T1 JOIN T2, pred on T2.a
	qB := cardest.SPJQuery{ // base-table expression over T4 only
		Expr:  mustExpr(t, "T4"),
		Preds: []cardest.Predicate{{Table: "T4", Attr: "b", Lo: 0, Hi: 5000}},
	}
	expect := func(step string, q cardest.SPJQuery, want Tier) {
		t.Helper()
		if _, tier, err := svc.Estimate(q); err != nil || tier != want {
			t.Fatalf("%s: tier=%v err=%v, want %v", step, tier, err, want)
		}
	}
	appendRow := func(name string) {
		t.Helper()
		tbl := cat.MustTable(name)
		row, err := tbl.Row(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}

	expect("cold A", qA, TierCold)
	expect("cold B", qB, TierCold)
	expect("warm A", shifted(qA, 1), TierPlan)
	expect("warm B", shifted(qB, 1), TierPlan)

	// Mutating T1 kills exactly the plan pinning T1 (qA); the T4 plan serves on.
	appendRow("T1")
	expect("A after T1 mutation", shifted(qA, 2), TierCold)
	expect("B after T1 mutation", shifted(qB, 2), TierPlan)

	// Adopting a replacement SIT over T2-T3 publishes a new epoch: every plan
	// dies, the T4 plan included.
	sits, _ := svc.Registry().Snapshot()
	var clone *sit.SIT
	for _, s := range sits {
		if s.Spec.Table == "T3" && s.Spec.Expr.NumTables() == 2 {
			c := *s
			clone = &c
		}
	}
	if clone == nil {
		t.Fatal("T2-T3 SIT not found in snapshot")
	}
	if err := svc.Registry().Adopt([]*sit.SIT{clone}); err != nil {
		t.Fatal(err)
	}
	expect("A after adopt", shifted(qA, 3), TierCold)
	expect("B after adopt", shifted(qB, 3), TierCold)

	// Mutating T4 kills exactly the T4 plan; qA's freshly re-prepared plan
	// survives.
	appendRow("T4")
	expect("B after T4 mutation", shifted(qB, 4), TierCold)
	expect("A after T4 mutation", shifted(qA, 4), TierPlan)

	// A staleness refresh rebuilds SITs over the grown T2. No SIT spans T4,
	// but the epoch bump still retires the T4 plan.
	t2 := cat.MustTable("T2")
	row, err := t2.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := 0, t2.NumRows()/2; i < n; i++ {
		if err := t2.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt, err := svc.Registry().Refresh(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) == 0 {
		t.Fatal("refresh rebuilt nothing after 50% growth")
	}
	expect("A after refresh", shifted(qA, 5), TierCold)
	expect("B after refresh", shifted(qB, 5), TierCold)

	st := svc.Stats()
	if st.Misses != 8 || st.PlanHits != 4 || st.Hits != 0 {
		t.Fatalf("stats %+v, want 8 cold / 4 plan hits / 0 result hits", st)
	}
	// One plan per (shape, pin): A under 4 pins, B under 4; none evicted.
	if st.PlanEvictions != 0 || st.PlanEntries != 8 {
		t.Fatalf("stats %+v, want 0 plan evictions and 8 plans resident", st)
	}
}

// TestCacheSingleFlight fires identical concurrent requests at a cold cache
// and asserts exactly one recomputes: the rest either hit a fast tier or
// find the first request's entry when they reach the builder.
func TestCacheSingleFlight(t *testing.T) {
	svc, _ := newChainService(t, sit.DefaultConfig())
	q := testQueries(t)[2]

	const callers = 32
	results := make([]cardest.Estimate, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			est, _, err := svc.Estimate(q)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = est
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d got a different estimate", i)
		}
	}
	// A racer that reaches tier 2 between the first request's publish and its
	// own result-cache probe may legitimately score a plan hit; either fast
	// tier proves it skipped recomputation.
	st := svc.Stats()
	if st.Misses != 1 || st.Hits+st.PlanHits != callers-1 {
		t.Fatalf("stats %+v, want exactly 1 miss and %d fast-tier hits", st, callers-1)
	}
}

// TestCacheLRUEviction bounds the result cache at two entries and asserts
// the least-recently-used one is evicted — and then answered by the plan
// tier, whose (shape-keyed) entry is still resident.
func TestCacheLRUEviction(t *testing.T) {
	svc, _ := newChainService(t, sit.DefaultConfig())
	svc.cache = newLRU[cardest.Estimate](2)
	qs := testQueries(t)
	for _, q := range qs[:3] {
		if _, tier, err := svc.Estimate(q); err != nil || tier != TierCold {
			t.Fatalf("cold estimate: tier=%v err=%v", tier, err)
		}
	}
	if n := svc.Stats().Entries; n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	// qs[0] was the LRU victim; qs[2] is still resident.
	if _, tier, err := svc.Estimate(qs[2]); err != nil || tier != TierResult {
		t.Fatalf("resident entry: tier=%v err=%v", tier, err)
	}
	if _, tier, err := svc.Estimate(qs[0]); err != nil || tier != TierPlan {
		t.Fatalf("evicted entry: tier=%v err=%v, want plan-hit fallback", tier, err)
	}
}

// TestPlanCacheLRU bounds the plan cache at two shapes and asserts LRU
// eviction forces the evicted shape back through the cold tier. The repeat
// requests shift their constants, so the result tier cannot answer them.
func TestPlanCacheLRU(t *testing.T) {
	svc, _ := newChainService(t, sit.DefaultConfig())
	svc.plans = newLRU[*cardest.EstimatorPlan](2)
	qs := testQueries(t)
	for _, q := range qs[:3] {
		if _, tier, err := svc.Estimate(q); err != nil || tier != TierCold {
			t.Fatalf("cold estimate: tier=%v err=%v", tier, err)
		}
	}
	st := svc.Stats()
	if st.PlanEntries != 2 || st.PlanEvictions != 1 {
		t.Fatalf("stats %+v, want 2 plan entries and 1 eviction", st)
	}
	if _, tier, err := svc.Estimate(shifted(qs[2], 1)); err != nil || tier != TierPlan {
		t.Fatalf("resident plan: tier=%v err=%v", tier, err)
	}
	if _, tier, err := svc.Estimate(shifted(qs[0], 1)); err != nil || tier != TierCold {
		t.Fatalf("evicted plan: tier=%v err=%v", tier, err)
	}
}

// TestShedOverload exercises the overload path deterministically: with the
// builder held and the governor starved, a cold request past the queue bound
// fails fast with ErrOverloaded, queued requests complete once the builder
// frees, and the fast tiers keep answering throughout.
func TestShedOverload(t *testing.T) {
	cat, err := datagen.ChainDB(datagen.DefaultChainConfig())
	if err != nil {
		t.Fatal(err)
	}
	scfg := sit.DefaultConfig()
	scfg.MemBudget = 1 // any probe fails: the governor is always under pressure
	reg, err := sit.NewRegistry(cat, scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
	})
	svc, err := NewService(reg, Config{ShedQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := testQueries(t)[0]

	// Occupy the builder so cold requests queue behind it.
	release := make(chan struct{})
	held := make(chan struct{})
	builderDone := make(chan error, 1)
	go func() {
		builderDone <- reg.WithBuilder(func(*sit.Builder) error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held

	// One cold request queues on the held builder.
	type result struct {
		est  cardest.Estimate
		tier Tier
		err  error
	}
	first := make(chan result, 1)
	go func() {
		est, tier, err := svc.Estimate(q)
		first <- result{est, tier, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never queued on the builder")
		}
		time.Sleep(time.Millisecond)
	}

	// The next cold request is past the queue bound under pressure: shed.
	if _, _, err := svc.Estimate(q); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded request returned %v, want ErrOverloaded", err)
	}
	if st := svc.Stats(); st.Sheds != 1 {
		t.Fatalf("stats %+v, want 1 shed", st)
	}

	// Release the builder: the queued request completes normally.
	close(release)
	if err := <-builderDone; err != nil {
		t.Fatal(err)
	}
	r := <-first
	if r.err != nil || r.tier != TierCold {
		t.Fatalf("queued request: tier=%v err=%v", r.tier, r.err)
	}

	// Fast tiers are never shed, even under permanent budget pressure.
	got, tier, err := svc.Estimate(q)
	if err != nil || tier != TierResult {
		t.Fatalf("result tier under pressure: tier=%v err=%v", tier, err)
	}
	if !reflect.DeepEqual(got, r.est) {
		t.Fatal("cached answer diverges from the queued computation")
	}
	if _, tier, err := svc.Estimate(shifted(q, 1)); err != nil || tier != TierPlan {
		t.Fatalf("plan tier under pressure: tier=%v err=%v", tier, err)
	}
	if st := svc.Stats(); st.Sheds != 1 || st.Queued != 0 {
		t.Fatalf("final stats %+v, want 1 shed and an empty queue", st)
	}
}

// TestInvalidRequestsFailBeforeBuilder: a request no tier can answer — an
// empty range, an unknown predicate or join column, a cyclic join — is
// rejected before any tier. With the builder held, each fails at once
// instead of waiting for it, and none counts toward the builder queue the
// shed decision reads.
func TestInvalidRequestsFailBeforeBuilder(t *testing.T) {
	svc, _ := newChainService(t, sit.DefaultConfig())
	reg := svc.Registry()
	release := make(chan struct{})
	held := make(chan struct{})
	builderDone := make(chan error, 1)
	go func() {
		builderDone <- reg.WithBuilder(func(*sit.Builder) error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	defer func() {
		close(release)
		if err := <-builderDone; err != nil {
			t.Fatal(err)
		}
	}()

	// Neither the join cardinality of T3 JOIN T4 nor a T4 base statistic is
	// memoized: a request that reached the cold tier would wait for the
	// builder.
	join := mustExpr(t, "T3 JOIN T4 ON T3.jnext = T4.jprev")
	for _, c := range []struct {
		name string
		q    cardest.SPJQuery
	}{
		{"empty range", cardest.SPJQuery{Expr: join, Preds: []cardest.Predicate{{Table: "T4", Attr: "b", Lo: 10, Hi: 0}}}},
		{"unknown column", cardest.SPJQuery{Expr: join, Preds: []cardest.Predicate{{Table: "T4", Attr: "zz", Lo: 0, Hi: 10}}}},
		{"unknown join column", cardest.SPJQuery{Expr: mustExpr(t, "T3 JOIN T4 ON T3.nocol = T4.jprev")}},
		{"cyclic join", cardest.SPJQuery{Expr: mustExpr(t,
			"T1 JOIN T2 ON T1.jnext = T2.jprev JOIN T3 ON T2.jnext = T3.jprev AND T3.jnext = T1.jprev")}},
	} {
		name, q := c.name, c.q
		done := make(chan error, 1)
		go func() {
			_, _, err := svc.Estimate(q)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("%s: want an error", name)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: request waited for the builder (stats %+v)", name, svc.Stats())
		}
	}
	if st := svc.Stats(); st.Queued != 0 || st.Misses != 0 {
		t.Fatalf("stats %+v, want invalid requests to touch no tier", st)
	}
}

// TestServiceErrors covers request and configuration validation.
func TestServiceErrors(t *testing.T) {
	svc, _ := newChainService(t, sit.DefaultConfig())
	if _, _, err := svc.Estimate(cardest.SPJQuery{}); err == nil {
		t.Fatal("nil expression must fail")
	}
	q := cardest.SPJQuery{
		Expr:  mustExpr(t, "T1 JOIN T2 ON T1.jnext = T2.jprev"),
		Preds: []cardest.Predicate{{Table: "T4", Attr: "a", Lo: 0, Hi: 1}},
	}
	if _, _, err := svc.Estimate(q); err == nil {
		t.Fatal("predicate outside the expression must fail")
	}
	if _, err := NewService(nil, Config{}); err == nil {
		t.Fatal("nil registry must fail")
	}
	if _, err := NewService(svc.Registry(), Config{ShedQueue: -1}); err == nil {
		t.Fatal("negative shed queue must fail")
	}
}

// TestColdEstimateFreshAfterAppendToUncoveredTable: an append to a table no
// SIT covers triggers no rebuild, yet the next cold estimate touching it must
// equal a from-scratch service's bit for bit — the builder's base-histogram
// cache follows the table's data generation.
func TestColdEstimateFreshAfterAppendToUncoveredTable(t *testing.T) {
	svc, cat := newChainService(t, sit.DefaultConfig())
	q := cardest.SPJQuery{
		Expr: mustExpr(t, "T3 JOIN T4 ON T3.jnext = T4.jprev"),
		Preds: []cardest.Predicate{
			{Table: "T4", Attr: "a", Lo: 0, Hi: 2_000_000},
			{Table: "T3", Attr: "a", Lo: 0, Hi: 1200},
		},
	}
	before, _, err := svc.Estimate(q) // warms the T4 base histograms
	if err != nil {
		t.Fatal(err)
	}
	t4 := cat.MustTable("T4")
	n := t4.NumRows() / 4
	cols := make([][]int64, t4.NumCols())
	for c := range cols {
		cols[c] = make([]int64, n)
		for i := range cols[c] {
			cols[c][i] = int64(1_000_000 + 7*i + c)
		}
	}
	// Mutations go through the builder lock, as a refresher's would.
	if err := svc.Registry().WithBuilder(func(*sit.Builder) error { return t4.AppendColumns(cols...) }); err != nil {
		t.Fatal(err)
	}
	if rebuilt, err := svc.Registry().Refresh(0.2); err != nil || len(rebuilt) != 0 {
		t.Fatalf("refresh rebuilt %v, err %v; the served SITs do not touch T4", rebuilt, err)
	}
	got, tier, err := svc.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierCold {
		t.Fatalf("estimate after the append came from tier %v, want cold", tier)
	}

	// From scratch: a new registry over the mutated catalog with the same SITs.
	reg, err := sit.NewRegistry(cat, sit.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for _, text := range serveSpecs {
		spec, err := query.ParseSIT(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Get(spec, sit.SweepFull); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := NewService(reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := fresh.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cold estimate after the append mixes in stale base statistics:\n got %+v\nwant %+v", got, want)
	}
	if reflect.DeepEqual(got, before) {
		t.Errorf("estimate did not move after a 25%% append of out-of-domain rows: %+v", got)
	}
}
