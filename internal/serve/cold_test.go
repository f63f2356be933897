package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sitstats/sits/internal/cardest"
	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/datagen"
	"github.com/sitstats/sits/internal/query"
	"github.com/sitstats/sits/internal/sit"
)

// raceExprs are the join expressions of the cold-tier race and benchmark
// populations: every connected chain sub-expression of the 4-table chain DB
// plus two base tables.
var raceExprs = []string{
	"T1 JOIN T2 ON T1.jnext = T2.jprev",
	"T2 JOIN T3 ON T2.jnext = T3.jprev",
	"T3 JOIN T4 ON T3.jnext = T4.jprev",
	"T1 JOIN T2 ON T1.jnext = T2.jprev JOIN T3 ON T2.jnext = T3.jprev",
	"T2 JOIN T3 ON T2.jnext = T3.jprev JOIN T4 ON T3.jnext = T4.jprev",
	"T1 JOIN T2 ON T1.jnext = T2.jprev JOIN T3 ON T2.jnext = T3.jprev JOIN T4 ON T3.jnext = T4.jprev",
	"T1",
	"T4",
}

// parseRaceExprs parses raceExprs.
func parseRaceExprs(tb testing.TB) []*query.Expr {
	tb.Helper()
	out := make([]*query.Expr, len(raceExprs))
	for i, s := range raceExprs {
		e, err := query.ParseExpr(s)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = e
	}
	return out
}

// randomQuery draws a query over one of exprs with up to maxCols predicates
// on payload columns, in normalized order, with constants from nConst
// choices (few choices make result and plan hits likely).
func randomQuery(exprs []*query.Expr, rng *rand.Rand, maxCols, nConst int) cardest.SPJQuery {
	expr := exprs[rng.Intn(len(exprs))]
	tables := expr.Tables()
	attrs := []string{"a", "b", "c"}
	preds := make([]cardest.Predicate, rng.Intn(maxCols+1))
	for i := range preds {
		lo := int64(rng.Intn(nConst)) * 97
		p := cardest.Predicate{Table: tables[rng.Intn(len(tables))], Attr: attrs[rng.Intn(len(attrs))], Lo: lo}
		// One range per column: cardest.Validate refuses a repeated one.
		for hasColumn(preds[:i], p) {
			p.Table, p.Attr = tables[rng.Intn(len(tables))], attrs[rng.Intn(len(attrs))]
		}
		p.Hi = lo + 300 + int64(rng.Intn(nConst))*53
		preds[i] = p
	}
	return normalize(cardest.SPJQuery{Expr: expr, Preds: preds})
}

// hasColumn reports whether a predicate in preds ranges over p's column.
func hasColumn(preds []cardest.Predicate, p cardest.Predicate) bool {
	for _, o := range preds {
		if o.Table == p.Table && o.Attr == p.Attr {
			return true
		}
	}
	return false
}

// newRaceService builds a registry over a fresh chain DB with the serving
// test SIT set and fronts it with a service.
func newRaceService(tb testing.TB, scfg sit.Config, cfg Config) (*Service, *sit.Registry) {
	tb.Helper()
	cat, err := datagen.ChainDB(datagen.DefaultChainConfig())
	if err != nil {
		tb.Fatal(err)
	}
	reg, err := sit.NewRegistry(cat, scfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = reg.Close() })
	for _, text := range serveSpecs {
		spec, err := query.ParseSIT(text)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := reg.Get(spec, sit.SweepFull); err != nil {
			tb.Fatal(err)
		}
	}
	svc, err := NewService(reg, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return svc, reg
}

// raceState is one state of the catalog the race test's mutator moves
// through: how many append batches the tables hold, and the served SITs.
type raceState struct {
	batches int
	sits    []*sit.SIT
}

// TestPlanColdRaceAppendRefresh races cold and plan-tier estimation against
// a mutator that appends to every table under the builder lock and runs
// staleness refreshes, the refresh_mixed pattern. Every answer must equal a
// from-scratch estimator over one of the catalog states current while the
// request ran: the same SIT snapshot and the same table data, built in a
// fresh catalog. A memo keyed by generations read outside the critical
// section that computed it serves one state's statistics under another's
// key and fails here.
func TestPlanColdRaceAppendRefresh(t *testing.T) {
	scfg := sit.DefaultConfig()
	// Small caches keep most requests cold while shapes still repeat.
	svc, reg := newRaceService(t, scfg, Config{})
	svc.cache, svc.plans = newLRU[cardest.Estimate](32), newLRU[*cardest.EstimatorPlan](16)
	cat := reg.Catalog()

	// Each batch appends a slice of every table's own rows with the payload
	// shifted, so every batch moves the base histograms and the join
	// cardinalities.
	batch := func(tbl *data.Table, k int) [][]int64 {
		n := tbl.NumRows() / 10
		cols := make([][]int64, tbl.NumCols())
		for c, name := range tbl.ColumnNames() {
			vals := tbl.MustColumn(name)[:n]
			cols[c] = make([]int64, n)
			for i, v := range vals {
				if name == "a" || name == "b" || name == "c" {
					v += int64(150 * (k + 1))
				}
				cols[c][i] = v
			}
		}
		return cols
	}
	tables := cat.Names()
	exprs := parseRaceExprs(t)
	var pending [][][][]int64 // per batch, per table: columns
	const cycles = 16
	for k := 0; k < cycles; k++ {
		var perTable [][][]int64
		for _, name := range tables {
			perTable = append(perTable, batch(cat.MustTable(name), k))
		}
		pending = append(pending, perTable)
	}

	snap, _ := reg.Snapshot()
	states := []raceState{{batches: 0, sits: snap}}
	var ver atomic.Int64 // 2k: state k is current; odd: a mutation is in flight
	mutate := func(batches int, f func() error) {
		ver.Add(1)
		if err := f(); err != nil {
			t.Error(err)
		}
		snap, _ := reg.Snapshot()
		states = append(states, raceState{batches: batches, sits: snap})
		ver.Add(1)
	}

	type answer struct {
		q      cardest.SPJQuery
		est    cardest.Estimate
		v0, v1 int64
	}
	const workers = 4
	answers := make([][]answer, workers)
	var done atomic.Bool
	var served atomic.Int64
	// between lets the workers answer a batch of requests at the current
	// state before the next mutation.
	between := func() {
		for target := served.Load() + 150; served.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for !done.Load() {
				q := randomQuery(exprs, rng, 2, 3)
				v0 := ver.Load()
				est, _, err := svc.Estimate(q)
				v1 := ver.Load()
				if err != nil {
					t.Error(err)
					return
				}
				answers[w] = append(answers[w], answer{q, est, v0, v1})
				served.Add(1)
			}
		}(w)
	}
	for k := 0; k < cycles; k++ {
		between()
		mutate(k+1, func() error {
			return reg.WithBuilder(func(*sit.Builder) error {
				for i, name := range tables {
					if err := cat.MustTable(name).AppendColumns(pending[k][i]...); err != nil {
						return err
					}
				}
				return nil
			})
		})
		if k%2 == 1 {
			between()
			mutate(k+1, func() error {
				_, err := reg.Refresh(0.2)
				return err
			})
		}
	}
	between()
	done.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	// From-scratch estimates per (state, query), computed on demand over a
	// fresh catalog holding the state's batches.
	type memoKey struct {
		state int
		q     string
	}
	fresh := map[int]*cardest.Estimator{}
	want := map[memoKey]cardest.Estimate{}
	estimateAt := func(k int, q cardest.SPJQuery) cardest.Estimate {
		mk := memoKey{k, fmt.Sprint(q.Expr.Canonical(), q.Preds)}
		if est, ok := want[mk]; ok {
			return est
		}
		e, ok := fresh[k]
		if !ok {
			c, err := datagen.ChainDB(datagen.DefaultChainConfig())
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < states[k].batches; j++ {
				for i, name := range tables {
					if err := c.MustTable(name).AppendColumns(pending[j][i]...); err != nil {
						t.Fatal(err)
					}
				}
			}
			b, err := sit.NewBuilder(c, scfg)
			if err != nil {
				t.Fatal(err)
			}
			if e, err = cardest.New(b); err != nil {
				t.Fatal(err)
			}
			for _, s := range states[k].sits {
				if err := e.Register(s); err != nil {
					t.Fatal(err)
				}
			}
			fresh[k] = e
		}
		est, err := e.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		want[mk] = est
		return est
	}

	total, straddled := 0, 0
	for _, list := range answers {
		for _, a := range list {
			total++
			lo, hi := int(a.v0/2), int((a.v1+1)/2)
			if hi > lo {
				straddled++
			}
			ok := false
			for k := lo; k <= hi && !ok; k++ {
				ok = reflect.DeepEqual(a.est, estimateAt(k, a.q))
			}
			if !ok {
				t.Fatalf("estimate of %v over %s served between states %d and %d matches none of them:\n got  %+v\n state %d %+v",
					a.q.Preds, a.q.Expr, lo, hi, a.est, lo, estimateAt(lo, a.q))
			}
		}
	}
	if total == 0 || len(states) != 1+cycles+cycles/2 {
		t.Fatalf("%d answers over %d states", total, len(states))
	}
	t.Logf("%d answers checked over %d states, %d straddled a mutation; stats %+v", total, len(states), straddled, svc.Stats())
}

// TestShedSkipsMemoizedColdRequests pins the shedding semantics of the
// lock-free cold tier: with the builder held and the governor starved, a
// cold request whose statistics are already memoized is answered — it never
// waits for the builder — while a cold request that needs a new base
// statistic is still shed past the queue bound.
func TestShedSkipsMemoizedColdRequests(t *testing.T) {
	scfg := sit.DefaultConfig()
	scfg.MemBudget = 1 // the governor is always under pressure
	svc, reg := newRaceService(t, scfg, Config{ShedQueue: 1})
	join2 := mustExpr(t, "T1 JOIN T2 ON T1.jnext = T2.jprev")
	// Memoizes the T1.b base histogram; the join cardinality comes from the
	// SIT over the exact expression.
	warm := cardest.SPJQuery{Expr: join2, Preds: []cardest.Predicate{{Table: "T1", Attr: "b", Lo: 0, Hi: 5000}}}
	if _, tier, err := svc.Estimate(warm); err != nil || tier != TierCold {
		t.Fatalf("warm-up: tier=%v err=%v", tier, err)
	}

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

	// A request needing new base statistics waits for the builder.
	miss := cardest.SPJQuery{
		Expr:  mustExpr(t, "T3 JOIN T4 ON T3.jnext = T4.jprev"),
		Preds: []cardest.Predicate{{Table: "T4", Attr: "b", Lo: 0, Hi: 5000}},
	}
	type result struct {
		tier Tier
		err  error
	}
	first := make(chan result, 1)
	go func() {
		_, tier, err := svc.Estimate(miss)
		first <- result{tier, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the statistics miss never waited for the builder")
		}
		time.Sleep(time.Millisecond)
	}

	// A new shape over memoized statistics: cold, but answered.
	memo := cardest.SPJQuery{Expr: join2, Preds: []cardest.Predicate{
		{Table: "T1", Attr: "b", Lo: 10, Hi: 4000},
		{Table: "T2", Attr: "a", Lo: 0, Hi: 900},
	}}
	got, tier, err := svc.Estimate(memo)
	if err != nil || tier != TierCold {
		t.Fatalf("memoized cold request under pressure: tier=%v err=%v, want an answer from the cold tier", tier, err)
	}
	// Another statistics miss is past the queue bound: shed.
	other := cardest.SPJQuery{Expr: mustExpr(t, "T2 JOIN T3 ON T2.jnext = T3.jprev JOIN T4 ON T3.jnext = T4.jprev")}
	if _, _, err := svc.Estimate(other); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second statistics miss returned %v, want ErrOverloaded", err)
	}
	if st := svc.Stats(); st.Sheds != 1 || st.Misses != 2 {
		t.Fatalf("stats %+v, want 1 shed and 2 cold answers", st)
	}

	close(release)
	if err := <-builderDone; err != nil {
		t.Fatal(err)
	}
	if r := <-first; r.err != nil || r.tier != TierCold {
		t.Fatalf("queued request: tier=%v err=%v", r.tier, r.err)
	}
	ref, err := cardest.ForRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Estimate(normalize(memo))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("memoized answer diverges from a from-scratch estimate:\n got %+v\nwant %+v", got, want)
	}
	if st := svc.Stats(); st.Queued != 0 {
		t.Fatalf("final stats %+v, want an empty builder queue", st)
	}
}

// BenchmarkColdEstimateParallel measures the cold tier under parallel load:
// a seeded population of 2048 queries over 537 shapes — far more than the
// 16-entry result and plan caches — so most requests prepare a plan. Base
// statistics are warmed before the timer, as they are in a service that has
// been running.
func BenchmarkColdEstimateParallel(b *testing.B) {
	svc, _ := newRaceService(b, sit.DefaultConfig(), Config{})
	svc.cache, svc.plans = newLRU[cardest.Estimate](16), newLRU[*cardest.EstimatorPlan](16)
	exprs := parseRaceExprs(b)
	rng := rand.New(rand.NewSource(1))
	pop := make([]cardest.SPJQuery, 2048)
	for i := range pop {
		pop[i] = randomQuery(exprs, rng, 3, 1000)
		if _, _, err := svc.Estimate(pop[i]); err != nil {
			b.Fatal(err)
		}
	}
	before := svc.Stats()
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			if _, _, err := svc.Estimate(pop[rng.Intn(len(pop))]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := svc.Stats()
	if n := st.Misses + st.PlanHits - before.Misses - before.PlanHits; n > 0 {
		b.ReportMetric(float64(st.Misses-before.Misses)/float64(n), "cold-share")
	}
}

// BenchmarkTierHits measures the two fast tiers on one two-predicate shape:
// result-hit repeats one request; plan-hit cycles 64 constant sets through a
// one-entry result cache, so every request executes the cached plan and
// publishes its result.
func BenchmarkTierHits(b *testing.B) {
	q := normalize(cardest.SPJQuery{
		Expr: parseRaceExprs(b)[3],
		Preds: []cardest.Predicate{
			{Table: "T3", Attr: "a", Lo: 0, Hi: 1200},
			{Table: "T2", Attr: "a", Lo: 50, Hi: 1900},
		},
	})
	b.Run("result-hit", func(b *testing.B) {
		svc, _ := newRaceService(b, sit.DefaultConfig(), Config{})
		if _, _, err := svc.Estimate(q); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, tier, err := svc.Estimate(q); err != nil || tier != TierResult {
				b.Fatalf("tier %v err %v, want result-hit", tier, err)
			}
		}
	})
	b.Run("plan-hit", func(b *testing.B) {
		svc, _ := newRaceService(b, sit.DefaultConfig(), Config{})
		svc.cache = newLRU[cardest.Estimate](1)
		pop := make([]cardest.SPJQuery, 64)
		for i := range pop {
			pop[i] = shifted(q, int64(i+1))
		}
		if _, _, err := svc.Estimate(q); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, tier, err := svc.Estimate(pop[i%len(pop)]); err != nil || tier != TierPlan {
				b.Fatalf("tier %v err %v, want plan-hit", tier, err)
			}
		}
	})
}
