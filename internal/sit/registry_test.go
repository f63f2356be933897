package sit

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/datagen"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/query"
)

func chainCatalog(t *testing.T) *data.Catalog {
	t.Helper()
	cat, err := datagen.ChainDB(datagen.DefaultChainConfig())
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func mustSpec(t *testing.T, text string) query.SITSpec {
	t.Helper()
	spec, err := query.ParseSIT(text)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

var registrySpecs = []string{
	"T2.a | T1 JOIN T2 ON T1.jnext = T2.jprev",
	"T3.a | T2 JOIN T3 ON T2.jnext = T3.jprev",
	"T4.a | T3 JOIN T4 ON T3.jnext = T4.jprev",
	"T3.a | T1 JOIN T2 ON T1.jnext = T2.jprev JOIN T3 ON T2.jnext = T3.jprev",
}

// TestRegistrySingleFlight asserts that concurrent Gets for one spec share
// exactly one build: every caller receives the same served *SIT instance.
func TestRegistrySingleFlight(t *testing.T) {
	reg, err := NewRegistry(chainCatalog(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	spec := mustSpec(t, registrySpecs[0])

	const callers = 32
	results := make([]*SIT, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := reg.Get(spec, Sweep)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = s
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different SIT instance: duplicate build slipped past single-flight", i)
		}
	}
	if n := reg.Len(); n != 1 {
		t.Fatalf("registry serves %d SITs, want 1", n)
	}
	if e := reg.Epoch(); e != 1 {
		t.Fatalf("epoch %d after one published build, want 1", e)
	}
}

// TestRegistryConcurrentBuildsSharedGovernor drives N concurrent builders —
// separate Builder instances plus a registry, all reserving against one
// shared Governor — and asserts the global Peak stays within the budget
// while every build succeeds. Run under -race this is the shared-ledger
// accounting test.
func TestRegistryConcurrentBuildsSharedGovernor(t *testing.T) {
	const budget = 256 << 20
	gov := mem.NewGovernor(budget)
	defer func() {
		if err := gov.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	cat := chainCatalog(t)
	cfg := DefaultConfig()
	cfg.Governor = gov
	cfg.Parallelism = 2

	reg, err := NewRegistry(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	// Builders on private catalogs sharing the governor: concurrent
	// Materialize builds run executor plans whose operators all reserve
	// from the same ledger.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := NewBuilder(chainCatalog(t), cfg)
			if err != nil {
				errs <- err
				return
			}
			defer func() {
				if err := b.Close(); err != nil {
					errs <- err
				}
			}()
			spec, err := query.ParseSIT(registrySpecs[i%len(registrySpecs)])
			if err != nil {
				errs <- err
				return
			}
			if _, err := b.Build(spec, Materialize); err != nil {
				errs <- fmt.Errorf("builder %d: %w", i, err)
			}
		}(i)
	}
	// The registry builds the full spec list concurrently on the same ledger.
	for _, text := range registrySpecs {
		wg.Add(1)
		go func(text string) {
			defer wg.Done()
			if _, err := reg.Get(mustSpec(t, text), SweepFull); err != nil {
				errs <- err
			}
		}(text)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if peak := gov.Peak(); peak <= 0 || peak > budget {
		t.Fatalf("shared governor peak %d outside (0, %d]", peak, budget)
	}
	if used := gov.Used(); used != 0 {
		t.Fatalf("shared governor still holds %d bytes after all builders closed", used)
	}
	// The shared governor must survive every builder's Close.
	probe := gov.Grant("probe")
	if !probe.TryReserve(1) {
		t.Fatal("shared governor unusable after builder Close")
	}
	probe.Close()
}

// TestRegistryRefreshPublishesNewEpoch grows a base table past the staleness
// threshold and asserts Refresh rebuilds the affected SIT, bumps the epoch,
// and leaves concurrent readers undisturbed.
func TestRegistryRefreshPublishesNewEpoch(t *testing.T) {
	cat := chainCatalog(t)
	reg, err := NewRegistry(cat, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	spec := mustSpec(t, registrySpecs[0])
	before, err := reg.Get(spec, SweepFull)
	if err != nil {
		t.Fatal(err)
	}
	epoch0 := reg.Epoch()

	// Fresh catalog: a sweep must rebuild nothing and keep the epoch.
	rebuilt, err := reg.Refresh(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != 0 || reg.Epoch() != epoch0 {
		t.Fatalf("fresh sweep rebuilt %v and moved epoch %d -> %d", rebuilt, epoch0, reg.Epoch())
	}
	// A NaN threshold would compare false against every growth and silently
	// never rebuild anything.
	if _, err := reg.Refresh(math.NaN()); err == nil {
		t.Fatal("Refresh(NaN) must fail")
	}

	// Readers hammer the snapshot while the catalog mutates and refreshes.
	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				if s, ok := reg.Lookup(spec, SweepFull); !ok || s == nil {
					t.Error("served SIT vanished during refresh")
					return
				}
				snap, _ := reg.Snapshot()
				if len(snap) == 0 {
					t.Error("empty snapshot during refresh")
					return
				}
			}
		}()
	}

	growTable(t, cat, "T1", 0.5)
	rebuilt, err = reg.Refresh(0.2)
	close(stopReaders)
	readers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != 1 || rebuilt[0] != spec.String() {
		t.Fatalf("rebuilt %v, want [%s]", rebuilt, spec.String())
	}
	if reg.Epoch() != epoch0+1 {
		t.Fatalf("epoch %d after refresh, want %d", reg.Epoch(), epoch0+1)
	}
	after, ok := reg.Lookup(spec, SweepFull)
	if !ok {
		t.Fatal("refreshed SIT missing from snapshot")
	}
	if after == before {
		t.Fatal("refresh served the stale SIT instance unchanged")
	}
	st := reg.Stats()
	if st.RefreshSweeps != 2 || st.RefreshRebuilt != 1 {
		t.Fatalf("stats %+v, want 2 sweeps / 1 rebuilt", st)
	}
}

// TestRegistryBackgroundRefresh runs the refresher loop against a mutating
// catalog and asserts it publishes a new epoch on its own, then quiesces on
// Close.
func TestRegistryBackgroundRefresh(t *testing.T) {
	cat := chainCatalog(t)
	reg, err := NewRegistry(cat, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := mustSpec(t, registrySpecs[0])
	if _, err := reg.Get(spec, SweepFull); err != nil {
		t.Fatal(err)
	}
	epoch0 := reg.Epoch()
	for _, bad := range []float64{math.NaN(), -1} {
		if err := reg.StartRefresh(5*time.Millisecond, bad); err == nil {
			t.Fatalf("StartRefresh with threshold %v must fail", bad)
		}
	}
	if err := reg.StartRefresh(5*time.Millisecond, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := reg.StartRefresh(5*time.Millisecond, 0.2); err == nil {
		t.Fatal("second StartRefresh must fail while the first runs")
	}
	// The refresher reads table sizes under the builder lock, so the append
	// takes it too, as every catalog writer must.
	if err := reg.WithBuilder(func(*Builder) error {
		growTable(t, cat, "T1", 0.5)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for reg.Epoch() == epoch0 {
		select {
		case <-deadline:
			t.Fatal("background refresher never published a new epoch")
		case <-time.After(time.Millisecond):
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := reg.Get(spec, Sweep); err == nil {
		t.Fatal("Get after Close must fail")
	}
	if _, err := reg.Refresh(0.2); err == nil {
		t.Fatal("Refresh after Close must fail")
	}
}

// TestRegistryAdoptReplacesServedSet adopts a persisted-style SIT and
// asserts it replaces the served instance under a new epoch.
func TestRegistryAdoptReplacesServedSet(t *testing.T) {
	reg, err := NewRegistry(chainCatalog(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	spec := mustSpec(t, registrySpecs[0])
	built, err := reg.Get(spec, SweepFull)
	if err != nil {
		t.Fatal(err)
	}
	epoch := reg.Epoch()
	adopted := &SIT{Spec: built.Spec, Hist: built.Hist, Method: built.Method, EstimatedCard: built.EstimatedCard}
	if err := reg.Adopt([]*SIT{adopted}); err != nil {
		t.Fatal(err)
	}
	if reg.Epoch() != epoch+1 {
		t.Fatalf("epoch %d after Adopt, want %d", reg.Epoch(), epoch+1)
	}
	got, ok := reg.Lookup(spec, SweepFull)
	if !ok || got != adopted {
		t.Fatal("Adopt did not replace the served SIT")
	}
}

// growTable appends frac more rows (copies of row 0) to the named in-memory
// table, driving its staleness growth past any threshold below frac.
func growTable(t *testing.T, cat *data.Catalog, name string, frac float64) {
	t.Helper()
	tab, err := cat.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	row, err := tab.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	n := int(frac * float64(tab.NumRows()))
	for i := 0; i < n; i++ {
		if err := tab.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRegistryGetSurvivesPanickingBuild: spill I/O failures panic out of the
// executor, so a build can unwind through Registry.Get. The panic must reach
// the caller, same-spec waiters must be woken with an error, and the builder
// lock must be free afterwards — a later Get, Refresh and Close all return.
// Every step runs under a timeout because the failure mode is a deadlock.
func TestRegistryGetSurvivesPanickingBuild(t *testing.T) {
	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			fn()
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("%s did not return: the registry is wedged", what)
		}
	}
	cfg := DefaultConfig()
	cfg.MemBudget = 1 // every hash-join build side spills
	reg, err := NewRegistry(chainCatalog(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := reg.Governor().Runs()
	if err != nil {
		t.Fatal(err)
	}
	// With the spill directory gone, creating the first partition run fails
	// and exec panics.
	if err := os.RemoveAll(store.Dir()); err != nil {
		t.Fatal(err)
	}
	spec := mustSpec(t, registrySpecs[0])
	key := cacheKey(spec, Materialize)
	// get reports how Get(spec, Materialize) ended: by panic or by returning
	// err.
	type outcome struct {
		panicked bool
		err      error
	}
	get := func(out chan<- outcome) {
		defer func() {
			if recover() != nil {
				out <- outcome{panicked: true}
			}
		}()
		_, err := reg.Get(spec, Materialize)
		out <- outcome{err: err}
	}

	// Park the builder of the flight behind the builder lock, join its flight
	// the way a same-spec Get does, then let the build run into the panic.
	reg.builderMu.Lock()
	builderOut, waiterOut := make(chan outcome, 1), make(chan outcome, 1)
	go get(builderOut)
	var f *flight
	within("flight registration", func() {
		for f == nil {
			reg.flightMu.Lock()
			f = reg.inflight[key]
			reg.flightMu.Unlock()
			runtime.Gosched()
		}
	})
	go get(waiterOut)
	reg.builderMu.Unlock()

	within("the panicking Get", func() {
		if o := <-builderOut; !o.panicked {
			t.Errorf("Get(Materialize) without a spill directory returned %v, want the build's panic", o.err)
		}
	})
	within("the flight of the panicking build", func() {
		<-f.done
		if f.err == nil {
			t.Error("waiters of a panicked build were woken without an error")
		}
	})
	// The concurrent Get either joined that flight (error) or arrived after it
	// retired and ran into the same panic itself; it must not hang.
	within("a concurrent Get of the same spec", func() {
		if o := <-waiterOut; !o.panicked && o.err == nil {
			t.Error("concurrent Get(Materialize) neither panicked nor failed")
		}
	})
	within("Get of another spec", func() {
		if _, err := reg.Get(mustSpec(t, registrySpecs[1]), SweepFull); err != nil {
			t.Errorf("Get(SweepFull) after a panicked build: %v", err)
		}
	})
	within("Refresh", func() {
		if _, err := reg.Refresh(0.2); err != nil {
			t.Errorf("Refresh after a panicked build: %v", err)
		}
	})
	within("Close", func() {
		if err := reg.Close(); err != nil {
			t.Errorf("Close after a panicked build: %v", err)
		}
	})
}
