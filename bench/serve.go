package main

import (
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/sitstats/sits"
)

// Serving tiers as recorded per request; tierFailed marks a request that
// errored, was shed, or returned non-200.
const (
	tierCold = uint8(sits.TierCold)
	tierPlan = uint8(sits.TierPlan)
	tierRes  = uint8(sits.TierResult)
	numTiers = 3

	tierFailed = uint8(255)
)

const (
	// checkEvery is the sampling period of the served-vs-uncached checks;
	// smokeCheckEvery replaces it at smoke scale, where windows are too short
	// to see a thousand requests.
	checkEvery      = 1000
	smokeCheckEvery = 10
	// spanEvery is the sampling period of request-level spans in a traced
	// window; counts stay exact.
	spanEvery = 256
	// slowCall is the latency above which a call counts as having waited on
	// the builder (a cold request queued behind a rebuild), not computed.
	slowCall = time.Millisecond
)

// reply is what a phase's transport returns for one request.
type reply struct {
	tier     uint8
	card     float64
	serverUS float64 // server-reported estimate time (HTTP only)
	epoch    uint64  // registry epoch the answer belongs to (in-process only)
}

// served is one sampled request kept for the served-vs-uncached check.
type served struct {
	req   request
	reply reply
}

// clientLog is one closed-loop client's record of a window.
type clientLog struct {
	lat      []uint32 // ns per request, successes and failures alike
	slice    []uint16 // slice of the window the request started in
	tier     []uint8
	serverUS []float32
	sampled  []served
	slowNS   int64
	n        int // requests issued over the whole phase
}

// phaseSpec configures one serving phase (in-process or HTTP).
type phaseSpec struct {
	name    string // span prefix: "est" or "http"
	id      int    // distinguishes the phases' client generators
	seed    int64
	clients int
	window  time.Duration
	slice   time.Duration // length of the slices a window is cut into; 0 = the window is one slice
	sample  int           // keep every sample-th reply for the correctness checks
	tr      *tracer
	tf      *traffic
	do      func(r request) (reply, error)
	// cycle, when set, runs beside the clients at the top of every window
	// (the refresh workload's append+rebuild); the window ends when both the
	// clients and the cycle have finished.
	cycle func(tr *tracer, parentSpan int) error
	// before, when set, runs untimed ahead of every window (the refresh
	// workload rebuilds its fixture, so every window is the same experiment).
	before func() error
}

// phaseResult is what a serving phase measured.
type phaseResult struct {
	windows   []windowStats // measured untraced windows
	traced    []windowStats // measured traced windows (trace runs only)
	slices    []sliceStats  // the untraced windows' slices: what the end-to-end metrics reduce
	tierCount [numTiers]int64
	tierLat   [numTiers][]uint32 // ns, merged over the measured windows
	serverUS  []float32
	sampled   []served
	waitShare float64 // share of client wall time spent in calls > slowCall
	attempted int
	failed    int
}

// phase is one serving phase in progress. Its windows are run one at a time
// so the harness can interleave them with the other phase's windows and the
// creation passes: a noisy second on the machine then touches a minority of
// every metric's samples instead of one metric's every sample.
type phase struct {
	spec    phaseSpec
	logs    []*clientLog
	clients []func(start time.Time, windowSpan int)
	res     phaseResult
	next    int        // index of the next window; 0 is the warm-up
	bySlice [][]uint32 // scratch: a window's successful latencies, by slice

	slowNS, wallNS int64
}

// newPhase prepares the closed loop: C clients, each issuing its next request
// only after the previous reply.
func newPhase(ps phaseSpec) *phase {
	p := &phase{spec: ps}
	for c := 0; c < ps.clients; c++ {
		log := &clientLog{}
		p.logs = append(p.logs, log)
		rng := clientRNG(ps.seed, ps.id, c)
		p.clients = append(p.clients, func(start time.Time, windowSpan int) {
			for {
				at := now().Sub(start)
				if at >= ps.window {
					return
				}
				r := ps.tf.next(rng)
				log.n++
				spanID := 0
				if windowSpan != 0 && log.n%spanEvery == 0 {
					spanID = ps.tr.start(ps.name+".request", windowSpan, 0)
				}
				t0 := now()
				rep, err := ps.do(r)
				d := now().Sub(t0)
				ps.tr.end(spanID)
				if err != nil {
					rep.tier = tierFailed
				}
				log.lat = append(log.lat, uint32(min(d, time.Duration(1<<32-1))))
				log.slice = append(log.slice, uint16(ps.sliceOf(at)))
				log.tier = append(log.tier, rep.tier)
				log.serverUS = append(log.serverUS, float32(rep.serverUS))
				if d > slowCall {
					log.slowNS += int64(d)
				}
				if err == nil && log.n%ps.sample == 0 {
					log.sampled = append(log.sampled, served{r, rep})
				}
			}
		})
	}
	return p
}

// numSlices is how many slices a window has.
func (ps *phaseSpec) numSlices() int {
	if ps.slice <= 0 {
		return 1
	}
	return max(1, int(ps.window/ps.slice))
}

// sliceOf is the slice a request issued at offset at into the window belongs
// to; a remainder shorter than a slice joins the last one.
func (ps *phaseSpec) sliceOf(at time.Duration) int {
	if ps.slice <= 0 {
		return 0
	}
	return min(int(at/ps.slice), ps.numSlices()-1)
}

// runWindow runs the phase's next window: the first call is the discarded
// warm-up, later calls are measured. In a traced run even measured windows
// carry spans, so traced and untraced windows interleave on the same state.
func (p *phase) runWindow() error {
	ps, wi := p.spec, p.next
	p.next++
	measured := wi > 0
	traced := measured && ps.tr != nil && wi%2 == 0
	var wtr *tracer // nil in untraced windows
	if traced {
		wtr = ps.tr
	}
	for _, l := range p.logs {
		l.lat, l.slice, l.tier, l.serverUS, l.slowNS = l.lat[:0], l.slice[:0], l.tier[:0], l.serverUS[:0], 0
		if !measured {
			l.sampled = l.sampled[:0]
		}
	}
	if ps.before != nil {
		if err := ps.before(); err != nil {
			return err
		}
	}
	runtime.GC() // every window starts from a collected heap
	windowSpan := wtr.start(ps.name+".window", 0, wi)
	start := now()
	var wg sync.WaitGroup
	var cycleErr error
	if ps.cycle != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cycleErr = ps.cycle(wtr, windowSpan)
		}()
	}
	for _, run := range p.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(start, windowSpan)
		}()
	}
	wg.Wait()
	elapsed := now().Sub(start)
	wtr.end(windowSpan)
	if cycleErr != nil || !measured {
		return cycleErr
	}

	res := &p.res
	p.bySlice = slices.Grow(p.bySlice[:0], ps.numSlices())[:ps.numSlices()]
	for i := range p.bySlice {
		p.bySlice[i] = p.bySlice[i][:0]
	}
	var ok []uint32
	failed := 0
	for _, l := range p.logs {
		for i, t := range l.tier {
			if t == tierFailed {
				failed++
				continue
			}
			ok = append(ok, l.lat[i])
			p.bySlice[l.slice[i]] = append(p.bySlice[l.slice[i]], l.lat[i])
			res.tierCount[t]++
			if ps.tr != nil { // only the per-layer ledger splits latency by tier
				res.tierLat[t] = append(res.tierLat[t], l.lat[i])
				if l.serverUS[i] > 0 {
					res.serverUS = append(res.serverUS, l.serverUS[i])
				}
			}
		}
		p.slowNS += l.slowNS
	}
	p.wallNS += int64(elapsed) * int64(ps.clients)
	ws := summarizeWindow(ok, failed, elapsed.Seconds())
	res.attempted += ws.Attempted
	res.failed += ws.Failed
	if traced {
		res.traced = append(res.traced, ws)
		return nil
	}
	res.windows = append(res.windows, ws)
	// The window's slices share its wall time: a cycle that outlasts the
	// clients' deadline stretches the one slice of a refresh window.
	sliceSeconds := elapsed.Seconds() / float64(ps.numSlices())
	for _, lat := range p.bySlice {
		res.slices = append(res.slices, summarizeSlice(lat, sliceSeconds))
	}
	return nil
}

// result closes the phase's books.
func (p *phase) result() *phaseResult {
	res := &p.res
	for _, l := range p.logs {
		res.sampled = append(res.sampled, l.sampled...)
	}
	if p.wallNS > 0 {
		res.waitShare = float64(p.slowNS) / float64(p.wallNS)
	}
	return res
}

// tierShare is the share of the phase's successful requests the tier answered.
func (r *phaseResult) tierShare(t uint8) float64 {
	total := r.tierCount[0] + r.tierCount[1] + r.tierCount[2]
	if total == 0 {
		return 0
	}
	return float64(r.tierCount[t]) / float64(total)
}

// inproc is the in-process serving fixture: a registry over a freshly loaded
// catalog serving the SIT set the creation phase produced.
type inproc struct {
	e      *env
	w      workload
	budget int64
	built  []*sits.SIT
	db     *database

	cat *sits.Catalog
	gov *sits.Governor
	reg *sits.Registry
	svc *sits.Service

	refreshS []float64 // seconds per Registry.Refresh cycle
	rebuilt  []int     // SITs rebuilt per cycle
}

// serveConfig is the serving-layer configuration both phases run: the
// daemon's defaults.
var serveConfig = sits.ServeConfig{ShedQueue: 64}

// staleThreshold is the refresh trigger: the classic 20% growth.
const staleThreshold = 0.2

// warmRequests is how many requests of the workload's own traffic refill the
// caches of a rebuilt fixture before its window is timed.
const warmRequests = 4096

func newInproc(e *env, w workload, budget int64, built []*sits.SIT, db *database) (*inproc, error) {
	ip := &inproc{e: e, w: w, budget: budget, built: built, db: db}
	return ip, ip.reset()
}

// reset (re)builds the fixture from the files set-up wrote: tables reloaded,
// a new registry adopting the created SIT set, a new service with empty
// caches. Workloads with cold traffic get every base histogram built up
// front, so cold requests measure preparation, not first-touch histogram
// construction.
func (ip *inproc) reset() error {
	ip.close()
	var err error
	if ip.cat, err = ip.e.loadCatalog(ip.w); err != nil {
		return err
	}
	ip.gov = sits.NewGovernor(ip.budget)
	cfg := sits.DefaultConfig()
	cfg.Governor = ip.gov
	if ip.reg, err = sits.NewRegistry(ip.cat, cfg); err != nil {
		return err
	}
	if err := ip.reg.Adopt(ip.built); err != nil {
		return err
	}
	if ip.svc, err = sits.NewService(ip.reg, serveConfig); err != nil {
		return err
	}
	if ip.w.shapeShare == 0 {
		return nil
	}
	return ip.reg.WithBuilder(func(b *sits.Builder) error {
		for i := 0; i < numTables; i++ {
			for _, c := range columns(i) {
				if _, err := b.BaseHistogram(tableName(i), c); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// warm issues warmRequests requests of the workload's traffic, always the
// same ones, so a rebuilt fixture starts its window with filled caches.
func (ip *inproc) warm(tf *traffic, seed int64) error {
	rng := clientRNG(seed, 0, 0)
	for i := 0; i < warmRequests; i++ {
		if _, err := ip.do(tf.next(rng)); err != nil {
			return err
		}
	}
	return nil
}

func (ip *inproc) close() {
	if ip.cat == nil {
		return
	}
	_ = ip.reg.Close()
	_ = ip.gov.Close()
	closeCatalog(ip.cat)
}

func (ip *inproc) do(r request) (reply, error) {
	epoch := ip.reg.Epoch()
	est, tier, err := ip.svc.Estimate(r.query())
	if err != nil {
		return reply{}, err
	}
	return reply{tier: uint8(tier), card: est.Cardinality, epoch: epoch}, nil
}

// refreshCycle appends the pool (refreshGrow more rows) to every table, then
// runs one staleness sweep. The append holds the builder lock: table columns
// are not synchronized, and cold estimation reads them under the same lock.
func (ip *inproc) refreshCycle(tr *tracer, parentSpan int) error {
	err := ip.reg.WithBuilder(func(*sits.Builder) error {
		for i := 0; i < numTables; i++ {
			t, err := ip.cat.Table(tableName(i))
			if err != nil {
				return err
			}
			if err := t.AppendColumns(ip.db.pool[i]...); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	id := tr.start("sit.refresh", parentSpan, parentSpan)
	t0 := now()
	rebuilt, err := ip.reg.Refresh(staleThreshold)
	ip.refreshS = append(ip.refreshS, now().Sub(t0).Seconds())
	tr.end(id)
	ip.rebuilt = append(ip.rebuilt, len(rebuilt))
	return err
}

// numClients is the closed loop's client count: one per CPU.
func numClients() int { return runtime.GOMAXPROCS(0) }
