package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"github.com/sitstats/sits"
	"github.com/sitstats/sits/internal/mem"
)

// creation is what a workload's passes share: the parsed advisor workload
// and the builder configuration.
type creation struct {
	w       workload
	queries sits.Workload
	budget  int64 // governor budget in bytes, 0 = unlimited
}

func newCreation(w workload) (*creation, error) {
	c := &creation{w: w}
	for _, ts := range w.advise {
		tmpl, err := w.newTemplate(ts)
		if err != nil {
			return nil, err
		}
		q := sits.SPJQuery{Expr: tmpl.expr}
		for _, pc := range tmpl.preds {
			q.Preds = append(q.Preds, sits.Predicate{Table: pc.table, Attr: pc.attr, Lo: 1, Hi: pc.domain / 2})
		}
		c.queries = append(c.queries, q)
	}
	if w.budgetFrac > 0 {
		largest := 0
		for i, n := range w.rows {
			largest = max(largest, n*len(columns(i))*8)
		}
		c.budget = int64(w.budgetFrac * float64(largest))
	}
	return c, nil
}

// buildStep is one traced sit.Builder call of a pass: a shared scan
// (BuildGroup) of a schedule step, or a direct Build.
type buildStep struct {
	table   string
	specs   []sits.SITSpec
	taskIdx []int // task index per spec; nil for direct builds
	taskPos []int // position in the task's dependency sequence per spec
	seconds float64
	rows    int
}

// pass is the outcome of one full creation pass.
type pass struct {
	seconds float64
	digest  string
	built   []*sits.SIT

	// Kept open until release: the serving phases and the layer replay of
	// the last pass reuse them.
	cat     *sits.Catalog
	builder *sits.Builder
	gov     *sits.Governor

	tasks    []sits.SITTask
	schedule sits.Schedule
	solver   sits.ScheduleStats

	// Phase seconds, filled on every pass (cheap: a handful of clock reads).
	loadS, adviseS, solveS, buildS, persistS float64
	steps                                    []buildStep // traced passes only

	peak  int64        // Governor.Peak after the pass
	spill mem.RunStats // the pass's spill volume
}

// release closes the pass's builder, spill store and segment handles.
func (p *pass) release() {
	if p == nil || p.cat == nil {
		return
	}
	_ = p.builder.Close()
	_ = p.gov.Close()
	closeCatalog(p.cat)
	p.cat = nil
}

// digestOf hashes a persisted SIT set.
func digestOf(built []*sits.SIT) (string, []byte, error) {
	var buf bytes.Buffer
	if err := sits.SaveSITs(&buf, built); err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8]), buf.Bytes(), nil
}

// run performs one creation pass with a fresh Builder: load catalog ->
// advise -> schedule -> build -> persist. With a tracer, every layer call
// gets a span and the schedule is executed step by step so each shared scan
// has its own; naive swaps the Hybrid schedule for the no-sharing baseline.
func (c *creation) run(e *env, tr *tracer, traceID int, naive bool) (p *pass, err error) {
	p = &pass{}
	defer func() {
		if err != nil {
			p.release()
		}
	}()
	// Start every pass from a collected heap, as testing.B does, so a pass
	// does not pay for garbage the previous phase left behind.
	runtime.GC()
	root := tr.start("create.pass", 0, traceID)
	t0 := now()
	timed := func(name string, dst *float64, f func() error) error {
		id := tr.start(name, root, traceID)
		s := now()
		ferr := f()
		*dst += now().Sub(s).Seconds()
		tr.end(id)
		return ferr
	}

	if err = timed("data.load", &p.loadS, func() (lerr error) {
		p.cat, lerr = e.loadCatalog(c.w)
		return lerr
	}); err != nil {
		return p, err
	}
	cfg := sits.DefaultConfig()
	p.gov = sits.NewGovernor(c.budget)
	cfg.Governor = p.gov
	if p.builder, err = sits.NewBuilder(p.cat, cfg); err != nil {
		return p, err
	}

	var selected []sits.SITCandidate
	if err = timed("advisor.candidates", &p.adviseS, func() error {
		adv, aerr := sits.NewAdvisor(p.builder, sits.DefaultAdvisorConfig())
		if aerr != nil {
			return aerr
		}
		cands, aerr := adv.Candidates(c.queries)
		selected = sits.SelectCandidates(cands, math.Inf(1))
		return aerr
	}); err != nil {
		return p, err
	}
	tasks, direct := sits.CreationTasks(selected)
	p.tasks = tasks

	if err = timed("sched.solve", &p.solveS, func() error {
		senv, serr := sits.ScheduleEnvFor(p.cat, 1.0/1000, cfg.SampleRate, 0)
		if serr != nil {
			return serr
		}
		if naive {
			p.schedule, serr = sits.NaiveSchedule(sits.ScheduleTasks(tasks), senv)
			return serr
		}
		p.schedule, p.solver, serr = sits.HybridSchedule(sits.ScheduleTasks(tasks), senv, time.Second)
		return serr
	}); err != nil {
		return p, err
	}

	switch {
	case c.w.direct:
		for _, t := range tasks {
			direct = append(direct, t.Spec)
		}
	case tr == nil:
		s := now()
		p.built, err = sits.ExecuteSchedule(p.schedule, tasks, p.builder, c.w.method)
		p.buildS += now().Sub(s).Seconds()
	default:
		p.built, err = c.executeTraced(p, tr, root, traceID)
	}
	if err != nil {
		return p, err
	}
	for _, spec := range direct {
		var s *sits.SIT
		step := buildStep{table: spec.Table, specs: []sits.SITSpec{spec}}
		if err = timed("sit.build.direct", &step.seconds, func() (berr error) {
			s, berr = p.builder.Build(spec, c.w.method)
			return berr
		}); err != nil {
			return p, err
		}
		p.buildS += step.seconds
		if tr != nil {
			p.steps = append(p.steps, step)
		}
		p.built = append(p.built, s)
	}

	if err = timed("sit.persist", &p.persistS, func() error {
		digest, buf, derr := digestOf(p.built)
		if derr != nil {
			return derr
		}
		p.digest = digest
		return os.WriteFile(e.sitsFile(c.w), buf, 0o644)
	}); err != nil {
		return p, err
	}
	p.seconds = now().Sub(t0).Seconds()
	tr.end(root)

	p.peak = p.gov.Peak()
	if store, serr := p.gov.Runs(); serr == nil {
		p.spill = store.Stats()
	}
	return p, nil
}

// executeTraced is sits.ExecuteSchedule unrolled: one Builder.BuildGroup per
// schedule step, each under its own span, so a shared scan's wall time and
// scanned rows are visible from outside the sched package.
func (c *creation) executeTraced(p *pass, tr *tracer, root, traceID int) ([]*sits.SIT, error) {
	pos := make([]int, len(p.tasks))
	out := make([]*sits.SIT, len(p.tasks))
	for si, st := range p.schedule.Steps {
		step := buildStep{table: st.Table}
		for _, ti := range st.Advance {
			if ti < 0 || ti >= len(p.tasks) || pos[ti] >= len(p.tasks[ti].SubSpecs) {
				return nil, fmt.Errorf("bench: schedule step %d advances task %d out of sequence", si, ti)
			}
			step.specs = append(step.specs, p.tasks[ti].SubSpecs[pos[ti]])
			step.taskIdx = append(step.taskIdx, ti)
			step.taskPos = append(step.taskPos, pos[ti])
		}
		t, err := p.cat.Table(st.Table)
		if err != nil {
			return nil, err
		}
		step.rows = t.NumRows()
		id := tr.start("sit.build", root, traceID)
		s := now()
		built, err := p.builder.BuildGroup(step.specs, c.w.method)
		step.seconds = now().Sub(s).Seconds()
		tr.end(id)
		if err != nil {
			return nil, err
		}
		p.buildS += step.seconds
		p.steps = append(p.steps, step)
		for i, ti := range step.taskIdx {
			pos[ti]++
			if pos[ti] == len(p.tasks[ti].SubSpecs) {
				out[ti] = built[i]
			}
		}
	}
	for ti, s := range out {
		if s == nil {
			return nil, fmt.Errorf("bench: schedule left task %q incomplete", p.tasks[ti].Task.ID)
		}
	}
	return out, nil
}

// createPhase accumulates a workload's creation passes.
type createPhase struct {
	c          *creation
	seconds    []float64   // one per measured untraced pass
	tracedSecs []float64   // one per traced pass (trace runs only)
	digests    []string    // one per pass, warm-up included
	buildS     []float64   // build seconds of the untraced passes
	built      []*sits.SIT // the latest untraced pass's SIT set
	traced     *pass       // the last traced pass, kept open for the layer replay
	// The governor's ledger after the latest untraced pass.
	peak  int64
	spill mem.RunStats
}

// runPass runs the phase's next pass: the first is the discarded warm-up. In
// a traced run every second measured pass carries spans, so the traced and
// untraced passes see the same machine state and their difference is the
// tracing overhead.
func (ph *createPhase) runPass(e *env, tr *tracer) error {
	i := len(ph.digests)
	traced := tr != nil && i > 0 && i%2 == 0
	if !traced {
		tr = nil
	}
	p, err := ph.c.run(e, tr, i, false)
	if err != nil {
		return err
	}
	ph.digests = append(ph.digests, p.digest)
	if traced {
		ph.tracedSecs = append(ph.tracedSecs, p.seconds)
		ph.traced.release()
		ph.traced = p
		return nil
	}
	if i > 0 {
		ph.seconds = append(ph.seconds, p.seconds)
		ph.buildS = append(ph.buildS, p.buildS)
	}
	ph.built = p.built
	ph.peak, ph.spill = p.peak, p.spill
	p.release()
	return nil
}
