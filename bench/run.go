package main

import (
	"fmt"
	"time"
)

// options selects what one harness invocation does for a workload.
type options struct {
	seed    int64
	seconds float64 // measured time: creation passes + both serving phases
	trace   bool
	smoke   bool
}

// Shares of the measured seconds each phase gets.
const (
	createShare = 0.4
	estShare    = 0.3
	httpShare   = 0.3

	rounds       = 5                      // measured windows per serving phase, after one warm-up window
	sliceLen     = 100 * time.Millisecond // a window is cut into slices of this length
	setupRepeats = 5                      // set-up is repeated and its median reported
	minPasses    = 4                      // measured creation passes, after one warm-up pass; at most one per round
)

// phaseCount is the attempted/succeeded/failed ledger of one phase.
type phaseCount struct {
	Phase     string `json:"phase"`
	Attempted int    `json:"attempted"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
}

// result is everything one workload run measured.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	Clients    int                `json:"clients"`
	Digest     string             `json:"sit_digest"`
	SITs       []string           `json:"sits"`
	EndToEnd   map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	Phases     []phaseCount       `json:"phases"`
	Checks     []check            `json:"checks"`
	EstWindows []windowStats      `json:"est_windows"`
	HTTPWindow []windowStats      `json:"http_windows"`
	EstSlices  []sliceStats       `json:"est_slices"`
	HTTPSlices []sliceStats       `json:"http_slices"`
	RefreshS   []float64          `json:"refresh_cycle_s,omitempty"`
	PassS      []float64          `json:"create_pass_s"`
	SetupS     []float64          `json:"setup_repeat_s"`
	Spans      []layerRow         `json:"span_table,omitempty"`
	WallS      float64            `json:"wall_s"`
}

func (r *result) attempted() (n int) {
	for _, p := range r.Phases {
		n += p.Attempted
	}
	return n
}

func (r *result) failed() (n int) {
	for _, p := range r.Phases {
		n += p.Failed
	}
	return n
}

func (r *result) correct() bool { return r.failed() == 0 }

// runWorkload runs the full lifecycle for one workload: set-up, creation
// passes, in-process serving, HTTP serving, correctness checks and — in a
// traced run — the layer replay.
func runWorkload(e *env, w workload, opt options) (*result, error) {
	wall := now()
	res := &result{Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Traced: opt.trace, Clients: numClients()}
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	// Set-up: not the system under test. Repeated so its median is steady and
	// a cold go-build cache touches one repeat only.
	repeats := setupRepeats
	if opt.trace || opt.smoke {
		repeats = 1
	}
	var db *database
	var setupS []float64
	for i := 0; i < repeats; i++ {
		var d time.Duration
		var err error
		if db, d, err = e.setup(w, opt.seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
	}

	// Warm-up: one discarded creation pass, whose persisted SIT set both
	// serving fixtures start from, then one discarded window per phase.
	cr, err := newCreation(w)
	if err != nil {
		return nil, err
	}
	ph := &createPhase{c: cr}
	defer func() { ph.traced.release() }()
	if err := ph.runPass(e, tr); err != nil {
		return nil, err
	}
	tf, err := newTraffic(w, opt.seed)
	if err != nil {
		return nil, err
	}
	ip, err := newInproc(e, w, cr.budget, ph.built, db)
	if err != nil {
		return nil, err
	}
	defer ip.close()
	d, err := e.startDaemon(w, res.Clients)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if w.shapeShare > 0 {
		if err := d.warmBaseHistograms(w); err != nil {
			return nil, err
		}
	}
	// A window is a whole number of slices.
	window := func(share float64) time.Duration {
		d := time.Duration(share * opt.seconds / rounds * float64(time.Second))
		return max(d/sliceLen, 1) * sliceLen
	}
	sample := checkEvery
	if opt.smoke {
		sample = smokeCheckEvery
	}
	estSpec := phaseSpec{name: "est", id: 1, seed: opt.seed, clients: res.Clients, sample: sample, tr: tr, tf: tf, window: window(estShare), slice: sliceLen, do: ip.do}
	httpSpec := estSpec
	httpSpec.name, httpSpec.id, httpSpec.window, httpSpec.do = "http", 2, window(httpShare), d.do
	if w.refresh {
		// One append+rebuild cycle per window, each on a rebuilt fixture: the
		// windows are repeats of one experiment, and a window is one slice.
		estSpec.slice = 0
		estSpec.before = func() error {
			if err := ip.reset(); err != nil {
				return err
			}
			return ip.warm(tf, opt.seed)
		}
		estSpec.cycle = ip.refreshCycle
	}
	est, web := newPhase(estSpec), newPhase(httpSpec)
	serveRound := func() error {
		if err := est.runWindow(); err != nil {
			return err
		}
		if err := web.runWindow(); err != nil {
			return fmt.Errorf("%w\nsitserve log:\n%s", err, d.log.String())
		}
		return nil
	}
	if err := serveRound(); err != nil {
		return nil, err
	}

	// Measured rounds: a creation pass (while the creation budget lasts, and
	// at least minPasses), then one window of each serving phase.
	budget := time.Duration(createShare * opt.seconds * float64(time.Second))
	var spent time.Duration
	for r := 0; r < rounds; r++ {
		if r < minPasses || spent < budget {
			t0 := now()
			if err := ph.runPass(e, tr); err != nil {
				return nil, err
			}
			spent += now().Sub(t0)
		}
		if err := serveRound(); err != nil {
			return nil, err
		}
	}
	estRes, httpRes := est.result(), web.result()
	rssMB := d.rssPeakMB()
	d.stop()

	res.Digest = ph.digests[len(ph.digests)-1]
	for _, s := range ph.built {
		res.SITs = append(res.SITs, s.Spec.String())
	}
	res.PassS, res.SetupS, res.RefreshS = ph.seconds, setupS, ip.refreshS
	res.EstWindows = append(estRes.windows, estRes.traced...)
	res.HTTPWindow = append(httpRes.windows, httpRes.traced...)
	res.EstSlices, res.HTTPSlices = estRes.slices, httpRes.slices
	passes := len(ph.digests)
	res.Phases = append(res.Phases,
		phaseCount{"create", passes, passes, 0},
		phaseCount{"est", estRes.attempted, estRes.attempted - estRes.failed, estRes.failed},
		phaseCount{"http", httpRes.attempted, httpRes.attempted - httpRes.failed, httpRes.failed})

	// Checks.
	ms := &measured{e: e, w: w, opt: opt, cr: cr, ph: ph, ip: ip, tf: tf, est: estRes, http: httpRes,
		startupS: d.startupS, rssMB: rssMB}
	ck := &checker{measured: ms}
	if err := ck.run(); err != nil {
		return nil, err
	}
	res.Checks = ck.checks

	if !opt.trace {
		p50 := func(s sliceStats) float64 { return s.P50us }
		p99 := func(s sliceStats) float64 { return s.P99us }
		kops := func(s sliceStats) float64 { return s.Kops }
		res.EndToEnd = map[string]float64{
			"setup_s":     median(setupS),
			"create_s":    quietDecile(ph.seconds, true),
			"est_p50_us":  quietDecile(perSlice(estRes.slices, p50), true),
			"est_kops":    quietDecile(perSlice(estRes.slices, kops), false),
			"http_p50_us": quietDecile(perSlice(httpRes.slices, p50), true),
			"http_p99_us": quietDecile(perSlice(httpRes.slices, p99), true),
			"http_krps":   quietDecile(perSlice(httpRes.slices, kops), false),
		}
	} else {
		lm, traceChecks, err := ms.layerMetrics()
		if err != nil {
			return nil, err
		}
		res.PerLayer = lm
		res.Checks = append(res.Checks, traceChecks...)
		spans := tr.closed()
		res.Spans = spanTable(spans)
		if !opt.smoke {
			name := fmt.Sprintf("%s-seed%d", w.name, opt.seed)
			if err := writeJSON(e.outDir, name+"-spans.json", spans); err != nil {
				return nil, err
			}
			if err := writeJSON(e.outDir, name+"-layers.json", res); err != nil {
				return nil, err
			}
		}
	}
	failedChecks := 0
	for _, c := range res.Checks {
		if !c.OK {
			failedChecks++
		}
	}
	res.Phases = append(res.Phases, phaseCount{"checks", len(res.Checks), len(res.Checks) - failedChecks, failedChecks})
	res.WallS = now().Sub(wall).Seconds()
	return res, nil
}
