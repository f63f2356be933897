// Package serve is the serving layer of the statistics service: it answers
// SPJ cardinality-estimation requests from a sit.Registry's served SIT set
// through a three-tier pipeline, cheapest first:
//
//  1. Result cache — a bounded LRU keyed on the canonical expression, the
//     normalized predicates with constants, and the pin (below). A hit
//     returns the stored estimate untouched.
//  2. Plan cache — a bounded LRU keyed on the query *shape* (canonical
//     expression + predicate columns, without constants) and the pin. A hit
//     executes the prepared cardest.EstimatorPlan: allocation-free histogram
//     probes with the request's constants, no builder lock, no SIT matching.
//  3. Cold — prepare a fresh plan with the estimator compiled from the
//     registry's current snapshot, execute it, and publish both the plan and
//     the result for later requests. SIT matching and memoized base
//     statistics are lock-free; the registry's builder lock is taken only to
//     build a base statistic that does not exist yet at the tables' current
//     generations. Concurrent cold requests for one shape are
//     single-flighted, and a plan is published only under the pin of the
//     snapshot it was prepared from.
//
// The pin is the registry's AppendPin, read once per request into a stack
// buffer before the first tier: the SIT-set epoch plus the data generation of
// every table of the expression. A publish or a data mutation moves it, so
// neither cache invalidates in place: stale entries are stranded until the
// LRU bound reclaims them.
//
// No key is a string: one hash of the request's identity yields a 64-bit
// fingerprint per tier that indexes its cache (and the cold flights), and a
// hit compares the stored identity, so a collision is a miss.
//
// All three tiers are bit-identical: a result hit is the stored execute
// output, a plan hit re-runs the exact float operations cold estimation
// would, and preparation is deterministic. Under memory pressure the cold
// tier sheds: when the governor cannot admit a nominal build reservation and
// too many cold requests are already waiting for the builder on a statistics
// miss, a request that would wait too fails fast with ErrOverloaded instead
// of queueing unboundedly.
package serve

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/sitstats/sits/internal/cardest"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/sit"
)

// DefaultCacheEntries bounds the estimate result cache. One entry holds one
// Estimate (a few hundred bytes), so the bound stays small next to any
// realistic SIT set.
const DefaultCacheEntries = 4096

// DefaultPlanCacheEntries bounds the plan cache. Shapes are far fewer than
// constant combinations — one workload template is one shape — so the plan
// cache can be much smaller than the result cache.
const DefaultPlanCacheEntries = 1024

// DefaultShedQueue is the Config.ShedQueue sitserve runs.
const DefaultShedQueue = 64

// shedProbeBytes is the nominal first reservation of an estimation-triggered
// build. When the shared governor cannot admit even this much, every build
// queued behind the busy builder will run fully spilled; past the queue
// threshold the service sheds instead.
const shedProbeBytes = 64 << 10

// ErrOverloaded is returned by Estimate when the service sheds a cold
// request that must wait for the builder under budget pressure: the governor
// cannot admit a nominal build reservation and the builder queue is at or
// past Config.ShedQueue. The request was not estimated; clients should retry
// after a backoff.
var ErrOverloaded = errors.New("serve: overloaded, estimation shed")

// Tier identifies which serving tier answered a request.
type Tier int

const (
	// TierCold means the plan was prepared (SIT matching, candidate ranking,
	// base-statistic fallbacks) and executed.
	TierCold Tier = iota
	// TierPlan means a cached prepared plan was executed with the request's
	// constants: histogram probes only, no matching, no builder lock.
	TierPlan
	// TierResult means the full result was served from the estimate cache.
	TierResult
)

// String returns the tier name as reported in serving responses.
func (t Tier) String() string {
	switch t {
	case TierCold:
		return "cold"
	case TierPlan:
		return "plan-hit"
	case TierResult:
		return "result-hit"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Config parameterizes the serving layer. The result and plan caches are
// always on, bounded by DefaultCacheEntries and DefaultPlanCacheEntries.
type Config struct {
	// ShedQueue enables overload shedding when positive: a cold request that
	// must wait for the builder on a statistics miss, arriving while at
	// least ShedQueue requests are already waiting for it *and* the governor
	// is under budget pressure, fails fast with ErrOverloaded instead of
	// queueing. Cold requests whose statistics are memoized never wait and
	// are never shed. 0 disables shedding (waits queue unboundedly). The
	// benchmark and sitserve (DefaultShedQueue) run 64; shed tests run 1.
	ShedQueue int
}

// Service answers estimation requests over a registry's served SIT set.
type Service struct {
	reg   *sit.Registry
	cfg   Config
	cache *lru[cardest.Estimate]
	plans *lru[*cardest.EstimatorPlan]

	// est is the estimator compiled from the registry's snapshot of epoch
	// est.Epoch(); estMu serializes recompiling it once the epoch moves on.
	est   atomic.Pointer[cardest.Estimator]
	estMu sync.Mutex

	flightMu sync.Mutex
	flights  map[uint64]*coldFlight // plan fingerprint -> cold preparation in flight

	hits, misses atomic.Int64 // result-cache hits / cold estimations
	planHits     atomic.Int64 // plan-cache hits (result-cache misses)
	sheds        atomic.Int64 // cold requests rejected with ErrOverloaded
	queued       atomic.Int64 // cold requests waiting for the builder on a statistics miss
}

// coldFlight is one in-progress cold preparation; requests with the same
// plan identity wait for it and execute its plan.
type coldFlight struct {
	shape ident // the plan identity the flight prepares
	done  chan struct{}
	plan  *cardest.EstimatorPlan
	err   error
	// waiting is set while the leader waits for the builder: followers then
	// wait for it too, so the shed decision applies to them.
	waiting atomic.Bool
}

// NewService creates a serving layer over the registry.
func NewService(reg *sit.Registry, cfg Config) (*Service, error) {
	if reg == nil {
		return nil, fmt.Errorf("serve: NewService needs a registry")
	}
	if cfg.ShedQueue < 0 {
		return nil, fmt.Errorf("serve: shed queue depth %d must be >= 0 (0 = no shedding)", cfg.ShedQueue)
	}
	return &Service{
		reg:     reg,
		cfg:     cfg,
		cache:   newLRU[cardest.Estimate](DefaultCacheEntries),
		plans:   newLRU[*cardest.EstimatorPlan](DefaultPlanCacheEntries),
		flights: map[uint64]*coldFlight{},
	}, nil
}

// Registry returns the SIT catalog the service estimates from.
func (s *Service) Registry() *sit.Registry { return s.reg }

// Estimate answers one SPJ estimation request and reports which tier
// answered it. Estimates from every tier are bit-identical: the cache
// identities embed every input the computation reads (expression,
// predicates, SIT-set epoch, table generations), predicate order is
// normalized before estimation, and plan execution replays exactly the float
// operations cold estimation performs. The returned Estimate is shared with
// the result cache and must be treated as immutable.
//
// A request cardest.Validate rejects fails before any tier, so it never
// waits for the builder. Under budget pressure (see Config.ShedQueue) a cold
// request that would wait for the builder may fail with ErrOverloaded
// instead.
func (s *Service) Estimate(q cardest.SPJQuery) (cardest.Estimate, Tier, error) {
	if err := cardest.Validate(s.reg.Catalog(), q); err != nil {
		return cardest.Estimate{}, TierCold, err
	}
	nq := normalize(q)
	var buf [8]uint64 // the epoch and up to seven generations, on the stack
	pin, err := s.reg.AppendPin(buf[:0], nq.Expr)
	if err != nil {
		return cardest.Estimate{}, TierCold, err
	}

	// Tier 1: result cache.
	canon := nq.Expr.Canonical()
	ph, rh := fingerprints(canon, nq.Preds, pin)
	res := ident{canon: canon, preds: nq.Preds, consts: true, pin: pin}
	if est, ok := s.cache.get(rh, &res); ok {
		s.hits.Add(1)
		return est, TierResult, nil
	}

	// Tier 2: plan cache — lock-free.
	shape := ident{canon: canon, preds: nq.Preds, pin: pin}
	if plan, ok := s.plans.get(ph, &shape); ok {
		return s.planHit(plan, nq, rh, &res)
	}

	// Tier 3: cold, single-flighted per plan identity.
	f, leader := s.join(ph, nq, pin)
	if !leader {
		return s.follow(f, nq)
	}
	defer s.retire(ph, f)
	// A leader that lost the race with the previous flight's publish finds
	// its plan here.
	if plan, ok := s.plans.get(ph, &shape); ok {
		f.plan = plan
		return s.planHit(plan, nq, rh, &res)
	}
	return s.cold(nq, pin, f)
}

// cold prepares, executes and publishes the request's plan and result. f is
// the flight the request leads; it receives the plan or the error.
func (s *Service) cold(nq cardest.SPJQuery, pin []uint64, f *coldFlight) (cardest.Estimate, Tier, error) {
	plan, pin, err := s.prepare(nq, pin, f)
	f.plan, f.err = plan, err
	if err != nil {
		return cardest.Estimate{}, TierCold, err
	}
	out, err := plan.Execute(nq.Preds)
	if err != nil {
		return cardest.Estimate{}, TierCold, err
	}
	// The plan describes the snapshot of the pin prepare returns, which may
	// be later than the one the request was looked up under.
	pub := ident{canon: nq.Expr.Canonical(), preds: nq.Preds, pin: pin}
	ph, rh := fingerprints(pub.canon, pub.preds, pub.pin)
	s.plans.put(ph, &pub, plan)
	pub.consts = true
	s.cache.put(rh, &pub, out)
	s.misses.Add(1)
	return out, TierCold, nil
}

// prepare compiles the request's plan against one stable snapshot and
// returns it with the pin it may be published under. The pin's counters are
// monotonic, so equal pins read before and after preparation prove the plan
// describes exactly the pin's snapshot; when a counter moved, preparation is
// retried against the new snapshot.
func (s *Service) prepare(nq cardest.SPJQuery, pin []uint64, f *coldFlight) (*cardest.EstimatorPlan, []uint64, error) {
	cols := cardest.Columns(nq.Preds)
	var buf [8]uint64
	for {
		est, err := s.current()
		if err != nil {
			return nil, nil, err
		}
		plan, ok, err := est.TryPrepare(nq.Expr, cols)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			if s.shed() {
				return nil, nil, ErrOverloaded
			}
			if plan, err = s.waitBuilder(est, nq, cols, f); err != nil {
				return nil, nil, err
			}
		}
		after, err := s.reg.AppendPin(buf[:0], nq.Expr)
		if err != nil {
			return nil, nil, err
		}
		if slices.Equal(after, pin) {
			return plan, pin, nil
		}
		pin = slices.Clone(after)
	}
}

// waitBuilder runs a preparation that has to build a base statistic,
// counted in the builder queue the shed decision reads.
func (s *Service) waitBuilder(est *cardest.Estimator, nq cardest.SPJQuery, cols []cardest.PredColumn, f *coldFlight) (*cardest.EstimatorPlan, error) {
	s.queued.Add(1)
	defer s.queued.Add(-1)
	f.waiting.Store(true)
	defer f.waiting.Store(false)
	return est.Prepare(nq.Expr, cols)
}

// shed reports, and counts, whether a request that must wait for the builder
// is rejected: shedding is on, the builder queue is at or past its bound,
// and the governor is under budget pressure.
func (s *Service) shed() bool {
	if s.cfg.ShedQueue > 0 && s.queued.Load() >= int64(s.cfg.ShedQueue) && underPressure(s.reg.Governor()) {
		s.sheds.Add(1)
		return true
	}
	return false
}

// join returns the flight for the request's shape (fingerprint h) and
// whether the caller leads it. A colliding shape leads an unregistered
// flight of its own. The flight copies only the pin: the leader's
// expression and predicates outlive it.
func (s *Service) join(h uint64, nq cardest.SPJQuery, pin []uint64) (*coldFlight, bool) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	f, ok := s.flights[h]
	if ok && f.shape.equal(&ident{canon: nq.Expr.Canonical(), preds: nq.Preds, pin: pin}) {
		return f, false
	}
	nf := &coldFlight{
		shape: ident{canon: nq.Expr.Canonical(), preds: nq.Preds, pin: slices.Clone(pin)},
		done:  make(chan struct{}),
	}
	if !ok {
		s.flights[h] = nf
	}
	return nf, true
}

// retire unregisters the leader's flight if registered and wakes its
// followers. A leader that panicked leaves neither plan nor error; its
// followers get an error.
func (s *Service) retire(h uint64, f *coldFlight) {
	if f.plan == nil && f.err == nil {
		f.err = errors.New("serve: cold preparation failed")
	}
	s.flightMu.Lock()
	if s.flights[h] == f {
		delete(s.flights, h)
	}
	s.flightMu.Unlock()
	close(f.done)
}

// follow answers a request from a flight's plan once the flight is done. A
// follower of a leader that is waiting for the builder waits for it too, so
// it is subject to shedding.
func (s *Service) follow(f *coldFlight, nq cardest.SPJQuery) (cardest.Estimate, Tier, error) {
	if f.waiting.Load() && s.shed() {
		return cardest.Estimate{}, TierCold, ErrOverloaded
	}
	<-f.done
	if f.err != nil {
		if errors.Is(f.err, ErrOverloaded) {
			s.sheds.Add(1)
		}
		return cardest.Estimate{}, TierCold, f.err
	}
	// The leader may have prepared against a later snapshot than this
	// request's pin names, so the result is not published.
	return s.planHit(f.plan, nq, 0, nil)
}

// planHit answers a request by executing a prepared plan and, when res is
// not nil, publishes the result under it (fingerprint rh).
func (s *Service) planHit(plan *cardest.EstimatorPlan, nq cardest.SPJQuery, rh uint64, res *ident) (cardest.Estimate, Tier, error) {
	out, err := plan.Execute(nq.Preds)
	if err != nil {
		return cardest.Estimate{}, TierPlan, err
	}
	s.planHits.Add(1)
	if res != nil {
		s.cache.put(rh, res, out)
	}
	return out, TierPlan, nil
}

// underPressure reports whether the governor is too committed to admit a
// nominal build reservation: the budget-pressure half of the shed decision.
func underPressure(g *mem.Governor) bool {
	return !g.Unlimited() && g.Budget()-g.Used() < shedProbeBytes
}

// current returns the estimator compiled from the registry's current
// snapshot, compiling it once per epoch.
func (s *Service) current() (*cardest.Estimator, error) {
	if est := s.est.Load(); est != nil && est.Epoch() == s.reg.Epoch() {
		return est, nil
	}
	s.estMu.Lock()
	defer s.estMu.Unlock()
	if est := s.est.Load(); est != nil && est.Epoch() == s.reg.Epoch() {
		return est, nil
	}
	est, err := cardest.ForRegistry(s.reg)
	if err != nil {
		return nil, err
	}
	s.est.Store(est)
	return est, nil
}

// normalize returns the query with its predicates in canonical (sorted)
// order, so permutations of one conjunction share a cache entry and the
// selectivity product multiplies in one deterministic order — float
// multiplication is not associative-commutative in rounding, so this is part
// of the bit-identity guarantee, not just a cache-sharing optimization. A
// query whose predicates are already sorted is returned as is.
func normalize(q cardest.SPJQuery) cardest.SPJQuery {
	if slices.IsSortedFunc(q.Preds, comparePreds) {
		return q
	}
	preds := slices.Clone(q.Preds)
	slices.SortFunc(preds, comparePreds)
	return cardest.SPJQuery{Expr: q.Expr, Preds: preds}
}

// comparePreds orders predicates by table, attribute, then constants.
func comparePreds(a, b cardest.Predicate) int {
	if c := strings.Compare(a.Table, b.Table); c != 0 {
		return c
	}
	if c := strings.Compare(a.Attr, b.Attr); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Lo, b.Lo); c != 0 {
		return c
	}
	return cmp.Compare(a.Hi, b.Hi)
}

// Stats is a point-in-time view of the serving layer for monitoring.
type Stats struct {
	// Hits counts result-cache hits; PlanHits counts result misses answered
	// by executing a cached plan; Misses counts cold estimations. HitRate is
	// (Hits + PlanHits) over all answered requests — the fraction that
	// skipped SIT matching.
	Hits     int64   `json:"hits"`
	PlanHits int64   `json:"plan_hits"`
	Misses   int64   `json:"misses"`
	HitRate  float64 `json:"hit_rate"`
	// Entries / PlanEntries are the resident result and plan counts, stale
	// entries stranded under an old pin included; PlanEvictions counts plans
	// removed by the LRU size bound, the only way a plan leaves the cache.
	Entries       int   `json:"entries"`
	PlanEntries   int   `json:"plan_entries"`
	PlanEvictions int64 `json:"plan_evictions"`
	// Sheds counts cold requests rejected with ErrOverloaded; Queued is the
	// current number of cold requests waiting for the builder on a
	// statistics miss, the depth the shed decision reads.
	Sheds    int64             `json:"sheds"`
	Queued   int64             `json:"queued"`
	Registry sit.RegistryStats `json:"registry"`
}

// Stats returns serving counters plus the registry's.
func (s *Service) Stats() Stats {
	st := Stats{
		Hits:     s.hits.Load(),
		PlanHits: s.planHits.Load(),
		Misses:   s.misses.Load(),
		Sheds:    s.sheds.Load(),
		Queued:   s.queued.Load(),
		Registry: s.reg.Stats(),
	}
	if total := st.Hits + st.PlanHits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits+st.PlanHits) / float64(total)
	}
	st.Entries = s.cache.len()
	st.PlanEntries = s.plans.len()
	st.PlanEvictions = s.plans.evictions.Load()
	return st
}
