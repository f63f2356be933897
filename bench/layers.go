package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"github.com/sitstats/sits"
	"github.com/sitstats/sits/internal/btree"
	"github.com/sitstats/sits/internal/cardest"
	"github.com/sitstats/sits/internal/colblk"
	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/exec"
	"github.com/sitstats/sits/internal/histogram"
	"github.com/sitstats/sits/internal/query"
	"github.com/sitstats/sits/internal/sample"
)

// This file is the second half of a traced run: after the phases have run
// with spans around every layer call, each layer's public entry points are
// replayed in isolation on the inputs the traced pass just used. The replay
// yields the child timings a span recorded from outside cannot see (a
// BuildGroup span covers scan, probe, sampling and histogram construction)
// and the per-layer rates.

const (
	// scanChunk is the chunk grid of the Sweep scans (sit.scanChunkRows).
	scanChunk = 4096
	// exactBuckets is the bucket budget SweepExact gives intermediates.
	exactBuckets = math.MaxInt32
)

// scanEdge is the one join edge a chain sub-spec's scan probes: the scanned
// table streams target with the multiplicity of parentAttr's value in the
// child (a base table at the chain's leaf, an intermediate SIT above it).
type scanEdge struct {
	spec       sits.SITSpec
	parentAttr string
	childTable string
	childAttr  string
	childSpec  *sits.SITSpec // nil when the child is a base table
	final      bool          // the task's requested SIT, not an intermediate
}

func edgeOf(task sits.SITTask, pos int) (scanEdge, error) {
	spec := task.SubSpecs[pos]
	e := scanEdge{spec: spec, final: pos == len(task.SubSpecs)-1}
	if pos > 0 {
		e.childSpec = &task.SubSpecs[pos-1]
		e.childTable = e.childSpec.Table
	} else {
		for _, t := range spec.Expr.Tables() {
			if t != spec.Table {
				e.childTable = t
			}
		}
	}
	for _, j := range spec.Expr.Joins() {
		switch {
		case j.LeftTable == spec.Table && j.RightTable == e.childTable:
			e.parentAttr, e.childAttr = j.LeftAttr, j.RightAttr
		case j.RightTable == spec.Table && j.LeftTable == e.childTable:
			e.parentAttr, e.childAttr = j.RightAttr, j.LeftAttr
		}
	}
	if e.parentAttr == "" {
		return e, fmt.Errorf("bench: no join between %s and %s in %s", spec.Table, e.childTable, spec.Expr)
	}
	return e, nil
}

// buildReplay is the children of the traced pass's build spans, replayed.
type buildReplay struct {
	scan, probe, sample, hist stopwatch
	index, exactHist, exec    stopwatch   // inside-build index loads, exact-budget base histograms, generating-query execution
	rows                      int64       // rows drained by the replayed scans
	mass                      float64     // multiplicity mass streamed to the consumers
	adds                      int64       // values streamed with a positive multiplicity
	baseCols                  [][2]string // base (table, attr) columns whose histograms the builds read
}

// children is the part of the build spans the replay accounts for.
func (r *buildReplay) children() float64 {
	d := r.scan.d + r.probe.d + r.sample.d + r.hist.d + r.index.d + r.exactHist.d + r.exec.d
	return d.Seconds()
}

// stopwatch accumulates the time of the calls it wraps.
type stopwatch struct{ d time.Duration }

func (s *stopwatch) time(f func()) {
	t0 := now()
	f()
	s.d += now().Sub(t0)
}

// replayer replays the children of one traced pass's build spans.
type replayer struct {
	w      workload
	p      *pass
	budget int64

	out        buildReplay
	exactHists map[[2]string]*histogram.Histogram
	baseSeen   map[[2]string]bool
}

// replayBuilds replays the children of the traced pass's build spans: scan,
// probe, sampling and histogram construction for every distinct chain
// sub-spec built through BuildGroup, and generating-query execution plus
// histogram construction for every Materialize build. Direct builds of bushy
// Sweep SITs have no single-edge replay and stay unattributed.
func replayBuilds(w workload, p *pass, budget int64) (*buildReplay, error) {
	r := &replayer{w: w, p: p, budget: budget,
		exactHists: map[[2]string]*histogram.Histogram{}, baseSeen: map[[2]string]bool{}}
	seen := map[string]bool{}
	for _, step := range p.steps {
		for i, spec := range step.specs {
			if seen[spec.Canonical()] {
				continue
			}
			seen[spec.Canonical()] = true
			var err error
			switch {
			case w.method == sits.Materialize:
				err = r.materialize(spec)
			case step.taskIdx != nil:
				var e scanEdge
				if e, err = edgeOf(p.tasks[step.taskIdx[i]], step.taskPos[i]); err == nil {
					err = r.sweep(e)
				}
			}
			if err != nil {
				return nil, err
			}
		}
	}
	return &r.out, nil
}

// materialize replays a Materialize build: execute the generating query
// under the pass's budget, build the histogram over the result.
func (r *replayer) materialize(spec sits.SITSpec) error {
	gov := sits.NewGovernor(r.budget)
	defer func() { _ = gov.Close() }()
	var vals []int64
	var err error
	r.out.exec.time(func() {
		vals, err = exec.AttrValuesOpts(r.p.cat, spec.Expr, spec.Table, spec.Attr, exec.Options{Gov: gov})
	})
	if err != nil {
		return err
	}
	r.out.hist.time(func() { _, err = histogram.FromValues(vals, sits.DefaultConfig().Buckets, histogram.MaxDiffArea) })
	r.out.mass += float64(len(vals))
	r.out.adds += int64(len(vals))
	return err
}

// sweep replays one Sweep-family scan: drain the two columns, probe the
// m-Oracle chunk by chunk, feed the consumer, build the SIT histogram.
func (r *replayer) sweep(e scanEdge) error {
	joinVals, targetVals, err := r.drain(e)
	if err != nil {
		return err
	}
	probe, err := r.oracle(e)
	if err != nil {
		return err
	}
	// The batched m-Oracle answers each chunk's join values in ascending
	// order; the argsort in front of it is the builder's, not the oracle's,
	// and stays outside the timed call.
	m := make([]float64, len(joinVals))
	perm := make([]int, 0, scanChunk)
	sorted := make([]int64, 0, scanChunk)
	ms := make([]float64, scanChunk)
	for lo := 0; lo < len(joinVals); lo += scanChunk {
		chunk := joinVals[lo:min(lo+scanChunk, len(joinVals))]
		perm = perm[:0]
		for i := range chunk {
			perm = append(perm, i)
		}
		sort.Slice(perm, func(a, b int) bool { return chunk[perm[a]] < chunk[perm[b]] })
		sorted = sorted[:0]
		for _, i := range perm {
			sorted = append(sorted, chunk[i])
		}
		out := ms[:len(sorted)]
		r.out.probe.time(func() { probe(sorted, out) })
		for k, i := range perm {
			m[lo+i] = out[k]
		}
	}
	for _, mv := range m {
		if mv > 0 {
			r.out.mass += mv
			r.out.adds++
		}
	}
	return r.consume(e, targetVals, m)
}

// drain streams the scanned table's join and target columns the way the
// shared scan does.
func (r *replayer) drain(e scanEdge) (joinVals, targetVals []int64, err error) {
	t, err := r.p.cat.Table(e.spec.Table)
	if err != nil {
		return nil, nil, err
	}
	r.out.scan.time(func() {
		var rd data.ChunkReader
		if rd, err = t.OpenChunks(scanChunk, e.parentAttr, e.spec.Attr); err != nil {
			return
		}
		defer func() { _ = rd.Close() }()
		for {
			ch, ok, nerr := rd.Next()
			if nerr != nil || !ok {
				err = nerr
				return
			}
			joinVals = append(joinVals, ch.Cols[0]...)
			targetVals = append(targetVals, ch.Cols[1]...)
		}
	})
	r.out.rows += int64(len(joinVals))
	return joinVals, targetVals, err
}

// oracle resolves the edge's m-Oracle as the builder did: an index over the
// joined base column for exact methods at the chain's leaf, otherwise the
// containment formula over the child's histogram (a base histogram or the
// intermediate SIT the pass cached) and the scanned column's base histogram.
func (r *replayer) oracle(e scanEdge) (func(sorted []int64, out []float64), error) {
	exact := r.w.method == sits.SweepExact || r.w.method == sits.SweepIndex
	if e.childSpec == nil && exact {
		tree, err := r.p.builder.Index(e.childTable, e.childAttr)
		if err != nil {
			return nil, err
		}
		col, err := tableColumn(r.p.cat, e.childTable, e.childAttr)
		if err != nil {
			return nil, err
		}
		r.out.index.time(func() { btree.Build(col) })
		counts := make([]int64, scanChunk)
		return func(sorted []int64, out []float64) {
			c := counts[:len(sorted)]
			tree.CountsSorted(sorted, c)
			for i, n := range c {
				out[i] = float64(n)
			}
		}, nil
	}
	var child *histogram.Histogram
	var err error
	if e.childSpec == nil {
		child, err = r.baseHist(e.childTable, e.childAttr)
	} else if s, ok := r.p.builder.Cached(*e.childSpec, r.w.method); ok {
		child = s.Hist
	} else {
		err = fmt.Errorf("bench: intermediate %s not cached", e.childSpec)
	}
	if err != nil {
		return nil, err
	}
	parent, err := r.baseHist(e.spec.Table, e.parentAttr)
	if err != nil {
		return nil, err
	}
	return func(sorted []int64, out []float64) {
		histogram.ContainmentMultiplicitySorted(child, parent, sorted, out)
	}, nil
}

// baseHist returns the base histogram an oracle reads. Default-budget ones
// come from the pass's builder (the advisor already built them, outside the
// build spans); SweepExact's exact-budget ones are built inside the build
// spans, so their first construction is timed here.
func (r *replayer) baseHist(table, attr string) (*histogram.Histogram, error) {
	key := [2]string{table, attr}
	if !r.baseSeen[key] {
		r.baseSeen[key] = true
		r.out.baseCols = append(r.out.baseCols, key)
	}
	if r.w.method != sits.SweepExact {
		return r.p.builder.BaseHistogram(table, attr)
	}
	if h, ok := r.exactHists[key]; ok {
		return h, nil
	}
	col, err := tableColumn(r.p.cat, table, attr)
	if err != nil {
		return nil, err
	}
	var h *histogram.Histogram
	r.out.exactHist.time(func() { h, err = histogram.FromValues(col, exactBuckets, histogram.MaxDiffArea) })
	r.exactHists[key] = h
	return h, err
}

// consume feeds the streamed (value, multiplicity) pairs to the method's
// consumer and builds the SIT histogram. The reservoir is public and timed;
// the exact consumers' map aggregation is internal to sit and is not.
func (r *replayer) consume(e scanEdge, targetVals []int64, m []float64) error {
	nb := sits.DefaultConfig().Buckets
	if r.w.method == sits.SweepExact && !e.final {
		nb = exactBuckets
	}
	var err error
	if r.w.method == sits.Sweep || r.w.method == sits.SweepIndex {
		k, err := r.p.builder.SampleSize(e.spec.Table)
		if err != nil {
			return err
		}
		res, err := sample.NewReservoir(k, 1)
		if err != nil {
			return err
		}
		r.out.sample.time(func() {
			for i, mv := range m {
				if mv > 0 {
					res.AddWeighted(targetVals[i], mv)
				}
			}
		})
		r.out.hist.time(func() { _, err = histogram.FromValues(res.Sample(), nb, histogram.MaxDiffArea) })
		return err
	}
	weights := map[int64]float64{}
	for i, mv := range m {
		if mv > 0 {
			weights[targetVals[i]] += mv
		}
	}
	pairs := histogram.TallyMap(weights)
	r.out.hist.time(func() { _, err = histogram.FromPairs(pairs, nb, histogram.MaxDiffArea) })
	return err
}

func tableColumn(cat *sits.Catalog, table, attr string) ([]int64, error) {
	t, err := cat.Table(table)
	if err != nil {
		return nil, err
	}
	return t.Column(attr)
}

// rate returns n/seconds, or 0 when nothing was timed.
func rate(n float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return n / d.Seconds()
}

// perUnit returns the time per operation in the given unit.
func perUnit(d time.Duration, n int, unit time.Duration) float64 {
	if n <= 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(n)
}

// sink keeps measured results alive so the compiler cannot drop the calls.
var sink float64

// isolated measures the layer entry points no phase span isolates, on a
// freshly loaded copy of the workload's tables: T1, T2 and their join edge
// T1.jnext = T2.jprev stand in for every scan.
type isolated struct {
	w      workload
	cat    *sits.Catalog
	t1, t2 *sits.Table
	b      *sits.Builder
	m      map[string]float64
}

func isolatedLayers(e *env, w workload, seed int64, built []*sits.SIT, tf *traffic, m map[string]float64) error {
	cat, err := e.loadCatalog(w)
	if err != nil {
		return err
	}
	defer closeCatalog(cat)
	il := &isolated{w: w, cat: cat, m: m}
	if il.t1, err = cat.Table(tableName(0)); err != nil {
		return err
	}
	if il.t2, err = cat.Table(tableName(1)); err != nil {
		return err
	}
	// Decode every column first, so no measurement pays for a segment
	// column's first materialization and a later one reuses it.
	for _, t := range []*sits.Table{il.t1, il.t2} {
		for _, c := range t.ColumnNames() {
			if _, err := t.Column(c); err != nil {
				return err
			}
		}
	}
	if il.b, err = sits.NewBuilder(cat, sits.DefaultConfig()); err != nil {
		return err
	}
	if err := il.storage(filepath.Join(e.runDir, w.name, "layer-T1.seg")); err != nil {
		return err
	}
	if err := il.histograms(rand.New(rand.NewSource(seed)), built[0].Hist); err != nil {
		return err
	}
	il.index()
	if err := il.executor(); err != nil {
		return err
	}
	return il.estimator(seed, built, tf)
}

// sortedChunks calls f with an ascending copy of every scan chunk of col and
// the chunk's offset: the form the batched oracles are probed in.
func sortedChunks(col []int64, f func(lo int, sorted []int64)) {
	buf := make([]int64, 0, scanChunk)
	for lo := 0; lo < len(col); lo += scanChunk {
		buf = append(buf[:0], col[lo:min(lo+scanChunk, len(col))]...)
		slices.Sort(buf)
		f(lo, buf)
	}
}

// storage writes T1 as a segment (which measures the encoded size on CSV
// workloads too), then runs the bare block codec over three of its columns.
func (il *isolated) storage(segPath string) error {
	if err := sits.WriteSegment(segPath, il.t1); err != nil {
		return err
	}
	seg, err := sits.OpenSegment(segPath)
	if err != nil {
		return err
	}
	il.m["data.seg_bytes_per_row"] = float64(seg.DataBytes()) / float64(max(1, seg.NumRows()))
	_ = seg.Close()
	_ = os.Remove(segPath)

	var enc, dec stopwatch
	var values int
	var buf []byte
	var out []int64
	for _, attr := range []string{"jnext", "a", "c"} {
		col := il.t1.MustColumn(attr)
		for lo := 0; lo < len(col); lo += scanChunk {
			block := col[lo:min(lo+scanChunk, len(col))]
			var code byte
			enc.time(func() {
				code, _ = colblk.Choose(block)
				buf = colblk.Append(buf[:0], code, block)
			})
			dec.time(func() { out, err = colblk.Decode(out, code, buf, len(block)) })
			if err != nil {
				return err
			}
			values += len(block)
		}
	}
	il.m["colblk.encode_mbps"] = rate(float64(values)*8/1e6, enc.d)
	il.m["colblk.decode_mbps"] = rate(float64(values)*8/1e6, dec.d)
	return nil
}

// histograms measures the histogram point operations — join cardinality of
// the edge's two base histograms, range estimates on a built SIT — and the
// two per-row kernels of a Sweep scan over the edge: the batched m-Oracle,
// and the reservoir absorbing T1.a with the oracle's multiplicities (time per
// unit of multiplicity, the AddN loop's currency).
func (il *isolated) histograms(rng *rand.Rand, sitHist *histogram.Histogram) error {
	parent, err := il.b.BaseHistogram(tableName(0), "jnext")
	if err != nil {
		return err
	}
	child, err := il.b.BaseHistogram(tableName(1), "jprev")
	if err != nil {
		return err
	}
	const joinReps = 2000
	var jc stopwatch
	jc.time(func() {
		for i := 0; i < joinReps; i++ {
			sink += histogram.JoinCardinality(parent, child)
		}
	})
	il.m["histogram.joincard_us"] = perUnit(jc.d, joinReps, time.Microsecond)

	const rangeReps = 200_000
	ranges := make([][2]int64, 1024)
	for i := range ranges {
		lo := rng.Int63n(int64(il.w.domain))
		ranges[i] = [2]int64{lo, lo + rng.Int63n(int64(il.w.domain))}
	}
	var er stopwatch
	er.time(func() {
		for i := 0; i < rangeReps; i++ {
			r := ranges[i%len(ranges)]
			sink += sitHist.EstimateRange(r[0], r[1])
		}
	})
	il.m["histogram.estimate_ns"] = perUnit(er.d, rangeReps, time.Nanosecond)

	k, err := il.b.SampleSize(tableName(0))
	if err != nil {
		return err
	}
	res, err := sample.NewReservoir(k, 1)
	if err != nil {
		return err
	}
	joinVals, target := il.t1.MustColumn("jnext"), il.t1.MustColumn("a")
	var probe, add stopwatch
	units := 0
	ms := make([]float64, scanChunk)
	sortedChunks(joinVals, func(lo int, sorted []int64) {
		out := ms[:len(sorted)]
		probe.time(func() { histogram.ContainmentMultiplicitySorted(child, parent, sorted, out) })
		for _, mv := range out {
			units += int(mv)
		}
		add.time(func() {
			for i, mv := range out {
				res.AddWeighted(target[lo+i], mv)
			}
		})
	})
	il.m["histogram.probe_ns_row"] = perUnit(probe.d, len(joinVals), time.Nanosecond)
	il.m["sample.add_ns_unit"] = perUnit(add.d, units, time.Nanosecond)
	return nil
}

// index bulk-loads T2.jprev and probes it with T1.jnext chunk by chunk.
func (il *isolated) index() {
	var load, probe stopwatch
	var tree *btree.Tree
	load.time(func() { tree = btree.Build(il.t2.MustColumn("jprev")) })
	il.m["btree.bulkload_s"] = load.d.Seconds()
	joinVals := il.t1.MustColumn("jnext")
	counts := make([]int64, scanChunk)
	sortedChunks(joinVals, func(_ int, sorted []int64) {
		probe.time(func() { tree.CountsSorted(sorted, counts[:len(sorted)]) })
	})
	il.m["btree.probe_ns_row"] = perUnit(probe.d, len(joinVals), time.Nanosecond)
}

// executor runs the edge's 2-way generating query at width 1 and at full
// width, and an in-memory sort of T2 on its join attribute.
func (il *isolated) executor() error {
	join, err := query.ParseExpr(chainQuery(0, 1))
	if err != nil {
		return err
	}
	var wide, serial, sorting stopwatch
	var joined []int64
	serial.time(func() {
		_, err = exec.AttrValuesOpts(il.cat, join, tableName(1), "a", exec.Options{Parallelism: 1})
	})
	if err != nil {
		return err
	}
	wide.time(func() { joined, err = exec.AttrValuesOpts(il.cat, join, tableName(1), "a", exec.Options{}) })
	if err != nil {
		return err
	}
	il.m["exec.join_mrows_s"] = rate(float64(len(joined))/1e6, wide.d)
	il.m["exec.width_speedup"] = rate(serial.d.Seconds(), wide.d)

	sortedRows := 0
	sorting.time(func() {
		var op *exec.BatchSort
		if op, err = exec.NewBatchSort(exec.NewBatchScan(il.t2), tableName(1)+".jprev"); err != nil {
			return
		}
		defer exec.ClosePlan(op)
		for b, ok := op.NextBatch(); ok; b, ok = op.NextBatch() {
			sortedRows += b.NumRows()
		}
	})
	il.m["exec.sort_mrows_s"] = rate(float64(sortedRows)/1e6, sorting.d)
	return err
}

// estimator measures parsing, preparation, execution, shape keys and plan
// pins on the workload's own request stream.
func (il *isolated) estimator(seed int64, built []*sits.SIT, tf *traffic) error {
	reg, err := sits.NewRegistry(il.cat, sits.DefaultConfig())
	if err != nil {
		return err
	}
	defer func() { _ = reg.Close() }()
	if err := reg.Adopt(built); err != nil {
		return err
	}
	est, err := referenceEstimator(il.b, reg)
	if err != nil {
		return err
	}
	const reps = 2000
	reqs := make([]request, reps)
	rng := clientRNG(seed, 9, 0)
	for i := range reqs {
		reqs[i] = tf.next(rng)
		// Warm the base histograms so Prepare measures matching, not builds.
		if _, err := est.Estimate(reqs[i].query()); err != nil {
			return err
		}
	}
	var parse, prep, execute, shape, pin stopwatch
	for _, r := range reqs {
		parse.time(func() { _, err = query.ParseExpr(r.tmpl.query) })
		if err != nil {
			return err
		}
		cols := cardest.Columns(r.preds)
		var plan *cardest.EstimatorPlan
		prep.time(func() { plan, err = est.Prepare(r.tmpl.expr, cols) })
		if err != nil {
			return err
		}
		execute.time(func() { _, err = plan.Execute(r.preds) })
		if err != nil {
			return err
		}
		shape.time(func() { sink += float64(len(cardest.ShapeKey(r.tmpl.expr, cols))) })
		pin.time(func() {
			var s string
			s, err = reg.PlanPin(r.tmpl.expr)
			sink += float64(len(s))
		})
		if err != nil {
			return err
		}
	}
	il.m["query.parse_us"] = perUnit(parse.d, reps, time.Microsecond)
	il.m["cardest.prepare_us"] = perUnit(prep.d, reps, time.Microsecond)
	il.m["cardest.execute_ns"] = perUnit(execute.d, reps, time.Nanosecond)
	il.m["cardest.shapekey_ns"] = perUnit(shape.d, reps, time.Nanosecond)
	il.m["sit.planpin_ns"] = perUnit(pin.d, reps, time.Nanosecond)
	return nil
}

// referenceEstimator is the uncached estimator the served estimates are
// checked against: a plain cardest.Estimator over b with the registry's
// current SIT set registered in snapshot order (the order the service uses).
func referenceEstimator(b *sits.Builder, reg *sits.Registry) (*sits.Estimator, error) {
	est, err := sits.NewEstimator(b)
	if err != nil {
		return nil, err
	}
	snapshot, _ := reg.Snapshot()
	for _, s := range snapshot {
		if err := est.Register(s); err != nil {
			return nil, err
		}
	}
	return est, nil
}
