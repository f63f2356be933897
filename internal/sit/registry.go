package sit

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/query"
)

// Registry is the concurrent SIT catalog of the statistics service: the
// long-lived, shared counterpart of the one-shot Builder. It separates the
// build machinery (the Builder, which caches base histograms, indexes and
// intermediate SITs but is single-threaded) from the served statistics,
// which live in an immutable epoch-swapped snapshot:
//
//   - Readers (estimate requests) call Lookup/Snapshot/Epoch, which read one
//     atomic pointer and never block, no matter how many builds or refreshes
//     are in flight.
//   - Writers (Get builds, Adopt, Refresh) serialize on the builder, then
//     publish a fresh snapshot with an incremented epoch. The epoch is the
//     invalidation signal estimate caches key on: any change to the served
//     SIT set — a new SIT, an adopted set, a staleness rebuild — moves the
//     epoch forward and strands cache entries keyed to the old one.
//   - Concurrent Get calls for the same spec are single-flighted: one caller
//     builds, the rest wait for its result.
//
// A background refresher (StartRefresh) periodically re-checks every served
// SIT against the catalog with the builder's staleness tracking and rebuilds
// drifted ones with their original method. Close quiesces the refresher and
// releases the builder's spill resources.
type Registry struct {
	builderMu sync.Mutex // serializes every use of the single-threaded builder
	builder   *Builder

	set atomic.Pointer[sitSet] // current served snapshot; swapped under builderMu

	flightMu sync.Mutex // guards inflight
	inflight map[string]*flight

	closed atomic.Bool
	stop   chan struct{}

	refreshMu      sync.Mutex // guards refresher start/stop state
	refresherDone  chan struct{}
	refreshSweeps  atomic.Int64 // completed staleness sweeps
	refreshRebuilt atomic.Int64 // SITs rebuilt by staleness sweeps
}

// sitSet is one immutable epoch of the served catalog.
type sitSet struct {
	epoch uint64
	sits  map[string]*SIT // cacheKey(spec, method) -> SIT
}

// flight is one in-progress single-flighted build.
type flight struct {
	done chan struct{}
	s    *SIT
	err  error
}

// NewRegistry creates a concurrent SIT catalog over the data catalog. The
// configuration is the Builder's; inject Config.Governor to share one
// process-wide memory budget with other registries and operators.
func NewRegistry(cat *data.Catalog, cfg Config) (*Registry, error) {
	b, err := NewBuilder(cat, cfg)
	if err != nil {
		return nil, err
	}
	r := &Registry{
		builder:  b,
		inflight: map[string]*flight{},
		stop:     make(chan struct{}),
	}
	r.set.Store(&sitSet{sits: map[string]*SIT{}})
	return r, nil
}

// Catalog returns the data catalog the registry serves statistics over.
func (r *Registry) Catalog() *data.Catalog { return r.builder.Catalog() }

// Governor returns the memory governor every build reserves against (shared
// or builder-private), or nil when un-budgeted.
func (r *Registry) Governor() *mem.Governor { return r.builder.Governor() }

// Epoch returns the current snapshot's epoch. It increments on every change
// to the served SIT set; estimate caches include it in their keys so a swap
// strands every entry computed against the previous set.
func (r *Registry) Epoch() uint64 { return r.set.Load().epoch }

// Len returns the number of served SITs.
func (r *Registry) Len() int { return len(r.set.Load().sits) }

// Lookup returns the served SIT for the spec and method without building.
// It is lock-free and safe under any concurrency.
func (r *Registry) Lookup(spec query.SITSpec, m Method) (*SIT, bool) {
	s, ok := r.set.Load().sits[cacheKey(spec, m)]
	return s, ok
}

// Snapshot returns the served SITs of the current epoch in deterministic
// (key-sorted) order, plus the epoch they belong to. The slice is fresh; the
// SITs are the served instances and must be treated as immutable.
func (r *Registry) Snapshot() ([]*SIT, uint64) {
	set := r.set.Load()
	keys := make([]string, 0, len(set.sits))
	for k := range set.sits {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*SIT, len(keys))
	for i, k := range keys {
		out[i] = set.sits[k]
	}
	return out, set.epoch
}

// publish swaps in a snapshot with the given SIT map and the next epoch.
// Callers must hold builderMu, which makes the read-modify-write atomic with
// respect to other publishers.
func (r *Registry) publish(sits map[string]*SIT) {
	r.set.Store(&sitSet{epoch: r.set.Load().epoch + 1, sits: sits})
}

// cloneSet copies the current served map for copy-on-write publication.
// Callers must hold builderMu.
func (r *Registry) cloneSet() map[string]*SIT {
	cur := r.set.Load().sits
	next := make(map[string]*SIT, len(cur)+1)
	for k, s := range cur { //statcheck:ignore maprange map-to-map copy, order-independent
		next[k] = s
	}
	return next
}

// AppendPin appends to dst the pin of the snapshot an estimate over expr
// reads, which every serving identity embeds: the epoch, then each table's
// data generation in Expr.Table order. All parts are monotonic, so equal
// pins read before and after a computation prove neither the served SIT set
// nor the data the expression reads changed in between.
func (r *Registry) AppendPin(dst []uint64, expr *query.Expr) ([]uint64, error) {
	if expr == nil {
		return dst, fmt.Errorf("sit: a snapshot pin needs an expression")
	}
	dst = append(dst, r.Epoch())
	cat := r.builder.Catalog()
	for i := 0; i < expr.NumTables(); i++ {
		t, err := cat.Table(expr.Table(i))
		if err != nil {
			return dst, err
		}
		dst = append(dst, t.Generation())
	}
	return dst, nil
}

// PlanPin renders AppendPin's pin as a string: 'e' and the epoch, then each
// table of the expression with its data generation, NUL-separated.
func (r *Registry) PlanPin(expr *query.Expr) (string, error) {
	var buf [8]uint64
	pin, err := r.AppendPin(buf[:0], expr)
	if err != nil {
		return "", err
	}
	size := 21 // 'e' and a uint64
	for i := 0; i < expr.NumTables(); i++ {
		size += len(expr.Table(i)) + 22 // NUL, '@' and a uint64
	}
	var num [20]byte
	var sb strings.Builder
	sb.Grow(size)
	sb.WriteByte('e')
	sb.Write(strconv.AppendUint(num[:0], pin[0], 10))
	for i, gen := range pin[1:] {
		sb.WriteByte(0)
		sb.WriteString(expr.Table(i))
		sb.WriteByte('@')
		sb.Write(strconv.AppendUint(num[:0], gen, 10))
	}
	return sb.String(), nil
}

// Get returns the served SIT for the spec, building and publishing it on
// first use. Concurrent calls for the same (spec, method) are deduplicated:
// exactly one caller runs the build, the others wait for its result. Builds
// of distinct specs serialize on the builder but never block readers.
func (r *Registry) Get(spec query.SITSpec, m Method) (*SIT, error) {
	if s, ok := r.Lookup(spec, m); ok {
		return s, nil
	}
	if r.closed.Load() {
		return nil, fmt.Errorf("sit: registry is closed")
	}
	key := cacheKey(spec, m)
	r.flightMu.Lock()
	if f, ok := r.inflight[key]; ok {
		r.flightMu.Unlock()
		<-f.done
		return f.s, f.err
	}
	f := &flight{done: make(chan struct{})}
	r.inflight[key] = f
	r.flightMu.Unlock()

	// Spill and grace-join I/O failures surface as panics from the build. The
	// flight must retire on that path too — waiters get the panic as an error,
	// the caller gets the panic itself — or same-spec Gets park forever.
	defer func() {
		p := recover()
		if p != nil {
			f.err = fmt.Errorf("sit: build of %s panicked: %v", spec.String(), p)
		}
		close(f.done)
		r.flightMu.Lock()
		delete(r.inflight, key)
		r.flightMu.Unlock()
		if p != nil {
			panic(p)
		}
	}()
	f.s, f.err = r.buildAndPublish(spec, m, key)
	return f.s, f.err
}

// buildAndPublish runs one Get's build under the builder lock, released on
// every exit so a panicking build cannot wedge later writers.
func (r *Registry) buildAndPublish(spec query.SITSpec, m Method, key string) (*SIT, error) {
	r.builderMu.Lock()
	defer r.builderMu.Unlock()
	// The snapshot may have gained the SIT while we queued for the builder
	// (an Adopt or a refresh); serve it rather than rebuilding.
	if s, ok := r.Lookup(spec, m); ok {
		return s, nil
	}
	s, err := r.builder.Build(spec, m)
	if err != nil {
		return nil, err
	}
	next := r.cloneSet()
	next[key] = s
	r.publish(next)
	return s, nil
}

// Adopt publishes externally built SITs (e.g. loaded from a persisted set)
// into the served snapshot and the builder's cache, replacing same-spec
// entries. One epoch swap covers the whole batch.
func (r *Registry) Adopt(sits []*SIT) error {
	if len(sits) == 0 {
		return nil
	}
	if r.closed.Load() {
		return fmt.Errorf("sit: registry is closed")
	}
	r.builderMu.Lock()
	defer r.builderMu.Unlock()
	if err := r.builder.AdoptCached(sits); err != nil {
		return err
	}
	next := r.cloneSet()
	for _, s := range sits {
		next[cacheKey(s.Spec, s.Method)] = s
	}
	r.publish(next)
	return nil
}

// Refresh runs one staleness sweep: every served SIT whose base tables
// drifted beyond threshold (relative row-count growth, e.g. 0.2 for 20%) is
// rebuilt with its original method, and the refreshed set is published as a
// new epoch. It returns the spec strings of the rebuilt SITs, sorted; an
// empty result means the epoch did not move.
func (r *Registry) Refresh(threshold float64) ([]string, error) {
	if r.closed.Load() {
		return nil, fmt.Errorf("sit: registry is closed")
	}
	r.builderMu.Lock()
	defer r.builderMu.Unlock()

	sits, _ := r.Snapshot()
	refreshed, rebuilt, err := r.builder.RefreshStale(sits, threshold)
	if err != nil {
		return nil, err
	}
	r.refreshSweeps.Add(1)
	if len(rebuilt) == 0 {
		return nil, nil
	}
	next := make(map[string]*SIT, len(sits))
	for i, s := range sits {
		next[cacheKey(s.Spec, s.Method)] = refreshed[i]
	}
	r.publish(next)
	r.refreshRebuilt.Add(int64(len(rebuilt)))
	return rebuilt, nil
}

// RegistryStats is a point-in-time view of the registry for monitoring.
// The memory fields read the shared governor, so under one injected
// Config.Governor they report the whole process: MemPeak never exceeding
// MemBudget is the budget invariant, observable live.
type RegistryStats struct {
	Epoch          uint64 `json:"epoch"`
	SITs           int    `json:"sits"`
	RefreshSweeps  int64  `json:"refresh_sweeps"`
	RefreshRebuilt int64  `json:"refresh_rebuilt"`
	MemBudget      int64  `json:"mem_budget"`
	MemUsed        int64  `json:"mem_used"`
	MemPeak        int64  `json:"mem_peak"`
}

// Stats returns monitoring counters.
func (r *Registry) Stats() RegistryStats {
	set := r.set.Load()
	gov := r.builder.Governor()
	return RegistryStats{
		Epoch:          set.epoch,
		SITs:           len(set.sits),
		RefreshSweeps:  r.refreshSweeps.Load(),
		RefreshRebuilt: r.refreshRebuilt.Load(),
		MemBudget:      gov.Budget(),
		MemUsed:        gov.Used(),
		MemPeak:        gov.Peak(),
	}
}

// StartRefresh launches the background refresher: every interval it runs one
// Refresh(threshold) sweep. At most one refresher runs per registry; Close
// quiesces it. Sweep errors are counted but do not stop the loop — the next
// tick retries against the then-current catalog.
func (r *Registry) StartRefresh(interval time.Duration, threshold float64) error {
	if interval <= 0 {
		return fmt.Errorf("sit: refresh interval must be positive, got %v", interval)
	}
	if !(threshold >= 0) {
		return fmt.Errorf("sit: staleness threshold must be non-negative, got %v", threshold)
	}
	if r.closed.Load() {
		return fmt.Errorf("sit: registry is closed")
	}
	r.refreshMu.Lock()
	defer r.refreshMu.Unlock()
	if r.refresherDone != nil {
		return fmt.Errorf("sit: refresher already running")
	}
	done := make(chan struct{})
	r.refresherDone = done
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-ticker.C:
				// Errors (e.g. a table dropped mid-sweep) leave the previous
				// epoch serving; the next tick re-runs the sweep.
				_, _ = r.Refresh(threshold)
			}
		}
	}()
	return nil
}

// Close quiesces the background refresher (waiting for an in-flight sweep to
// finish) and releases the builder's spill resources. A shared governor
// injected through Config.Governor stays open for its other users. Close is
// idempotent; Get/Adopt/Refresh fail after it.
func (r *Registry) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	close(r.stop)
	r.refreshMu.Lock()
	done := r.refresherDone
	r.refreshMu.Unlock()
	if done != nil {
		<-done
	}
	r.builderMu.Lock()
	defer r.builderMu.Unlock()
	return r.builder.Close()
}

// WithBuilder runs f with exclusive access to the registry's builder. The
// builder's caches (base histograms, indexes, intermediate SITs) are not
// concurrency-safe, so everything that touches them — notably cardinality
// estimation's base-histogram fallback — must run inside this critical
// section. Lock-free readers (Lookup, Snapshot) are unaffected.
func (r *Registry) WithBuilder(f func(*Builder) error) error {
	r.builderMu.Lock()
	defer r.builderMu.Unlock()
	return f(r.builder)
}
