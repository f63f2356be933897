package main

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"

	"github.com/sitstats/sits"
)

// check is one correctness check of a run. A failed check counts as a failed
// operation and makes the run incorrect.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// maxCompared bounds how many sampled requests each served-vs-uncached check
// recomputes.
const maxCompared = 2000

// measured is what a workload's phases leave behind for the checks and the
// per-layer ledger.
type measured struct {
	e    *env
	w    workload
	opt  options
	cr   *creation
	ph   *createPhase
	ip   *inproc
	tf   *traffic
	est  *phaseResult
	http *phaseResult

	startupS, rssMB float64 // the daemon's start-up time and peak RSS
}

// checker runs the workload's correctness checks after the phases.
type checker struct {
	*measured
	checks []check
}

func (c *checker) add(name string, ok bool, format string, args ...any) {
	c.checks = append(c.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

// run performs every check that applies to the workload. An error means a
// check could not be evaluated at all; a failed check is recorded, not
// returned.
func (c *checker) run() error {
	c.digests()
	if err := c.servedMatchesUncached(); err != nil {
		return err
	}
	if err := c.httpMatchesInProcess(); err != nil {
		return err
	}
	c.tierFloor()
	c.memory()
	if c.w.refresh {
		c.refreshed()
	}
	if c.w.method == sits.Materialize {
		if err := c.exactEqualsMaterialize(); err != nil {
			return err
		}
	}
	if c.w.method == sits.Sweep {
		if err := c.sweepBeatsHistSIT(); err != nil {
			return err
		}
	}
	return nil
}

// digests: every pass of the run persisted the identical SIT set.
func (c *checker) digests() {
	same := true
	for _, d := range c.ph.digests {
		same = same && d == c.ph.digests[0]
	}
	c.add("sit_digest_stable", same, "%d passes, digests %v", len(c.ph.digests), c.ph.digests)
}

// normalized returns the request's query with its predicates in the serving
// layer's canonical order. Selectivities multiply in predicate order and
// float multiplication rounds differently per order, so the uncached
// reference must see the order the service estimates in.
func normalized(r request) sits.SPJQuery {
	preds := slices.Clone(r.preds)
	slices.SortFunc(preds, func(a, b sits.Predicate) int {
		return cmp.Or(cmp.Compare(a.Table, b.Table), cmp.Compare(a.Attr, b.Attr), cmp.Compare(a.Lo, b.Lo), cmp.Compare(a.Hi, b.Hi))
	})
	return sits.SPJQuery{Expr: r.tmpl.expr, Preds: preds}
}

// compare checks sampled served cardinalities bit for bit against ref.
func compare(samples []served, ref *sits.Estimator, reissue func(served) (float64, error)) (n, bad int, first string, err error) {
	for _, s := range samples[:min(len(samples), maxCompared)] {
		got := s.reply.card
		if reissue != nil {
			if got, err = reissue(s); err != nil {
				return n, bad, first, err
			}
		}
		want, err := ref.Estimate(normalized(s.req))
		if err != nil {
			return n, bad, first, err
		}
		n++
		if math.Float64bits(got) != math.Float64bits(want.Cardinality) {
			bad++
			if first == "" {
				first = fmt.Sprintf("%s: served %v, uncached %v", s.req, got, want.Cardinality)
			}
		}
	}
	return n, bad, first, nil
}

// servedMatchesUncached: 1-in-1000 in-process estimates equal an uncached
// cardest.Estimator over the same catalog and SIT set, bit for bit. Answers
// from an epoch the registry has since left (the refresh workload) are
// re-issued through the service so both sides see the final SIT set.
func (c *checker) servedMatchesUncached() error {
	b, err := sits.NewBuilder(c.ip.cat, sits.DefaultConfig())
	if err != nil {
		return err
	}
	ref, err := referenceEstimator(b, c.ip.reg)
	if err != nil {
		return err
	}
	final := c.ip.reg.Epoch()
	n, bad, first, err := compare(c.est.sampled, ref, func(s served) (float64, error) {
		if s.reply.epoch == final {
			return s.reply.card, nil
		}
		est, _, err := c.ip.svc.Estimate(s.req.query())
		return est.Cardinality, err
	})
	if err != nil {
		return err
	}
	c.add("served_equals_uncached", bad == 0 && n > 0, "%d sampled in-process estimates compared, %d differ %s", n, bad, first)
	return nil
}

// httpMatchesInProcess: 1-in-1000 HTTP cardinalities equal the in-process
// estimate of the same query over the persisted SIT set.
func (c *checker) httpMatchesInProcess() error {
	cat, err := c.e.loadCatalog(c.w)
	if err != nil {
		return err
	}
	defer closeCatalog(cat)
	f, err := os.ReadFile(c.e.sitsFile(c.w))
	if err != nil {
		return err
	}
	loaded, err := sits.LoadSITs(bytes.NewReader(f))
	if err != nil {
		return err
	}
	reg, err := sits.NewRegistry(cat, sits.DefaultConfig())
	if err != nil {
		return err
	}
	defer func() { _ = reg.Close() }()
	if err := reg.Adopt(loaded); err != nil {
		return err
	}
	b, err := sits.NewBuilder(cat, sits.DefaultConfig())
	if err != nil {
		return err
	}
	ref, err := referenceEstimator(b, reg)
	if err != nil {
		return err
	}
	n, bad, first, err := compare(c.http.sampled, ref, nil)
	if err != nil {
		return err
	}
	c.add("http_equals_inprocess", bad == 0 && n > 0, "%d sampled HTTP estimates compared, %d differ %s", n, bad, first)
	return nil
}

// tierFloor: the in-process traffic hit the tier the workload targets. At
// smoke scale the share is reported but not asserted: the warm-up window is
// too short to fill the caches the floor assumes are full.
func (c *checker) tierFloor() {
	f := c.w.floor
	share := c.est.tierShare(uint8(f.tier))
	c.add("tier_share_floor", share >= f.share || c.opt.smoke, "%s share %.4f, floor %.2f", f.tier, share, f.share)
}

// memory: under a budget the creation pass stayed inside it and really
// spilled; without one it spilled nothing.
func (c *checker) memory() {
	peak, spilled := c.ph.peak, c.ph.spill.SpilledBytes
	if c.cr.budget > 0 {
		c.add("mem_within_budget", peak <= c.cr.budget && spilled > 0,
			"peak %d B <= budget %d B, spilled %d B", peak, c.cr.budget, spilled)
		return
	}
	c.add("mem_no_spill", spilled == 0, "spilled %d B with no budget", spilled)
}

// refreshed: every measured window rebuilt at least one SIT and at least one
// call waited on the builder.
func (c *checker) refreshed() {
	ok := len(c.ip.rebuilt) > 0
	for _, n := range c.ip.rebuilt {
		ok = ok && n > 0
	}
	c.add("refresh_rebuilds_every_window", ok, "SITs rebuilt per cycle %v", c.ip.rebuilt)
	c.add("refresh_builder_wait", c.est.waitShare > 0, "builder wait share %.4f", c.est.waitShare)
}

// exactEqualsMaterialize: SweepExact builds the same histograms as executing
// the generating query, on the workload's own specs. Built outside any timed
// region, without a budget.
func (c *checker) exactEqualsMaterialize() error {
	cat, err := c.e.loadCatalog(c.w)
	if err != nil {
		return err
	}
	defer closeCatalog(cat)
	b, err := sits.NewBuilder(cat, sits.DefaultConfig())
	if err != nil {
		return err
	}
	same := true
	detail := ""
	for _, m := range c.ph.built {
		x, err := b.Build(m.Spec, sits.SweepExact)
		if err != nil {
			return err
		}
		var hx, hm bytes.Buffer
		if err := sits.WriteHistogram(x.Hist, &hx); err != nil {
			return err
		}
		if err := sits.WriteHistogram(m.Hist, &hm); err != nil {
			return err
		}
		if !bytes.Equal(hx.Bytes(), hm.Bytes()) || x.EstimatedCard != m.EstimatedCard {
			same = false
			detail = m.Spec.String()
		}
	}
	c.add("sweepexact_equals_materialize", same, "%d specs compared %s", len(c.ph.built), detail)
	return nil
}

// sweepBeatsHistSIT: on the skewed, correlated database the 2-way Sweep SIT
// answers random ranges more accurately than base-histogram propagation.
func (c *checker) sweepBeatsHistSIT() error {
	cat, err := c.e.loadCatalog(c.w)
	if err != nil {
		return err
	}
	defer closeCatalog(cat)
	var sweep *sits.SIT
	for _, s := range c.ph.built {
		if s.Spec.Expr.NumTables() == 2 && s.Spec.Attr == "a" {
			sweep = s
			break
		}
	}
	if sweep == nil {
		c.add("sweep_beats_histsit", false, "no 2-way SIT over a was built")
		return nil
	}
	b, err := sits.NewBuilder(cat, sits.DefaultConfig())
	if err != nil {
		return err
	}
	baseline, err := b.Build(sweep.Spec, sits.HistSIT)
	if err != nil {
		return err
	}
	truth, err := sits.GroundTruth(cat, sweep.Spec.Expr, sweep.Spec.Table, sweep.Spec.Attr)
	if err != nil {
		return err
	}
	lo, _ := truth.Min()
	hi, _ := truth.Max()
	queries, err := sits.RandomRangeQueries(c.opt.seed, lo, hi, 1000)
	if err != nil {
		return err
	}
	got, err := sits.EvaluateAccuracy(sweep, truth, queries)
	if err != nil {
		return err
	}
	base, err := sits.EvaluateAccuracy(baseline, truth, queries)
	if err != nil {
		return err
	}
	c.add("sweep_beats_histsit", got.AvgRelError < base.AvgRelError,
		"%s: Sweep mean rel. error %.4f, Hist-SIT %.4f over %d ranges", sweep.Spec, got.AvgRelError, base.AvgRelError, len(queries))
	return nil
}
