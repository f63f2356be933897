package sit

import (
	"fmt"
	"slices"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/exec"
	"github.com/sitstats/sits/internal/mem"
)

// This file is the chunked, parallel execution engine behind the Sweep
// family. The paper's cost argument (Section 4) is that one sequential scan
// amortizes over many SITs; the engine additionally spreads that scan over
// the machine: the table's fixed chunk grid is split into contiguous
// windows, one per exec.ForkJoin index; each index streams its window
// through a private data.ChunkReader (zero-copy sub-slices for in-memory
// tables, on-demand block decode for segment-backed ones) into private
// consumer shards, and the shards are merged back in
// deterministic partition order. Per-worker probe scratch, segment decode
// buffers, value tables of histogram oracles and exact shards' pending
// partials are accounted against the builder's memory governor through one
// pooled grant, so budget Peak reflects the scan's real footprint at high
// parallelism.
//
// Determinism contract:
//
//   - Exact consumers (SweepFull, SweepExact) fold every chunk into its own
//     sorted partial and the root folds the partials in chunk index order
//     (worker 0 streams into the root; later shards only collect partials).
//     Chunk boundaries depend only on the table size, so the result is
//     bit-identical at every parallelism level, including the serial one.
//   - Sampled consumers (Sweep, SweepIndex) shard per worker with seeds
//     derived from the builder's seed sequence, so results are deterministic
//     for a fixed parallelism level; a single worker feeds the root consumer
//     directly and reproduces the original serial implementation bit for bit.

// scanChunkRows is the fixed chunk granularity of shared scans. It is
// independent of the worker count so that chunk boundaries — and therefore
// the per-chunk partial aggregations of the exact consumers — are identical
// at every parallelism level.
const scanChunkRows = 4096

// shardSeed derives the deterministic seed of shard i from a consumer's base
// seed. The splitmix64-style mixing keeps neighbouring shards' generator
// streams uncorrelated.
func shardSeed(base int64, i int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// probe is one distinct m-Oracle probe of a shared scan: an oracle answering
// a scanned column. Jobs whose predicates agree on both share one answer
// vector per chunk.
type probe struct {
	col int
	o   oracle
}

// scanPlan is what a shared scan resolves once, before the first chunk: the
// union of the jobs' columns (jobs cache their integer offsets into it, so
// the per-tuple loops never consult a name map) and the per-chunk work the
// jobs can share — each distinct (column, oracle) probe and each distinct
// target attribute's argsort is computed once and fanned out.
type scanPlan struct {
	jobs   []*scanJob
	cols   []string
	probes []probe
	sorts  []int // target column offsets argsorted per chunk
}

func planScan(jobs []*scanJob) *scanPlan {
	p := &scanPlan{jobs: jobs}
	for _, j := range jobs {
		j.targetCol = slot(&p.cols, j.targetAttr)
		j.sort = -1
		if j.cons.sortsTarget() {
			j.sort = slot(&p.sorts, j.targetCol)
		}
		for pi := range j.preds {
			jp := &j.preds[pi]
			jp.probe = slot(&p.probes, probe{col: slot(&p.cols, jp.attr), o: jp.o})
		}
	}
	return p
}

// tabulate swaps each distinct histogram probe for its tableOracle when
// histOracle.table admits the child's span against the scanned table's rows,
// so building a table never costs more than one pass over the scan. It runs
// after planScan has deduplicated the probes by oracle value.
func (p *scanPlan) tabulate(rows int, grant *mem.Grant) {
	for i, pr := range p.probes {
		if ho, ok := pr.o.(histOracle); ok {
			if tab := ho.table(rows, grant); tab != nil {
				p.probes[i].o = tab
			}
		}
	}
}

// slot returns v's index in *list, appending it when absent.
func slot[T comparable](list *[]T, v T) int {
	if i := slices.Index(*list, v); i >= 0 {
		return i
	}
	*list = append(*list, v)
	return len(*list) - 1
}

// probeScratch holds the per-scanner buffers reused across chunks: ans is one
// answer vector per distinct probe, tsort one argsort per distinct sorted
// target, m accumulates the per-row predicate product of multi-predicate
// jobs, and the remaining slices back the radix argsort and answer vectors
// of the batched m-Oracles. One scratch lives per scanning goroutine and is
// handed down through every batched probe, so feedChunk allocates nothing
// per chunk. The oracles themselves are shared across workers and must stay
// stateless — scratch is always caller-supplied, never stored on an oracle.
//
//statcheck:scratch
type probeScratch struct {
	// grant accounts the scratch buffers against the builder's memory
	// governor; it is the scan's single pooled grant, shared (atomically) by
	// every worker's scratch. nil means un-budgeted.
	grant *mem.Grant

	m     []float64
	ans   [][]float64
	tsort []sortedCol
	// probe is the argsort of the probe vector a batched m-Oracle is
	// answering; keys2/perm2 are the ping-pong partners of every argsort this
	// scratch runs.
	probe sortedCol
	keys2 []int64
	perm2 []int32
	// answer buffers for multiplicityBatch: per-sorted-probe multiplicities
	// (histogram oracles) and duplicate counts (index oracles).
	f64 []float64
	i64 []int64
}

// grow sizes the per-job product vector and the plan's answer vectors for an
// n-row chunk.
//
//statcheck:hot
func (s *probeScratch) grow(n int, p *scanPlan) {
	if len(s.ans) != len(p.probes) || len(s.tsort) != len(p.sorts) {
		s.ans = make([][]float64, len(p.probes))
		s.tsort = make([]sortedCol, len(p.sorts))
		s.m = nil
	}
	if cap(s.m) < n {
		// m plus one float64 vector per probe, net of the buffers replaced.
		s.grant.Force(8 * int64(1+len(s.ans)) * int64(n-cap(s.m)))
		s.m = make([]float64, n)
		for i := range s.ans {
			s.ans[i] = make([]float64, n)
		}
	}
}

// growSort sizes the argsort partners and answer buffers for an n-element
// vector; called by argsort so direct multiplicityBatch callers need no setup
// beyond a zero-value scratch.
//
//statcheck:hot
func (s *probeScratch) growSort(n int) {
	if cap(s.keys2) < n {
		// keys2/f64/i64 at 8 B and perm2 at 4 B per element, net of the
		// buffers being replaced.
		s.grant.Force(28 * int64(n-cap(s.keys2)))
		s.keys2 = make([]int64, n)
		s.perm2 = make([]int32, n)
		s.f64 = make([]float64, n)
		s.i64 = make([]int64, n)
	}
}

// feedChunk streams one chunk into the given per-job consumers (dst[i]
// absorbs the plan's i-th job's stream). Per tuple and job, the multiplicity
// is the product of the per-predicate oracle answers; the job's target value
// is streamed with that multiplicity.
//
// Every distinct probe is answered once per chunk over the whole column
// sub-slice and every distinct sorted target is argsorted once; jobs then
// differ only in which answers they multiply and which consumer folds the
// result. Each consumer sees its values in ascending row order with
// multiplicities that are bit-identical to a row-at-a-time computation (the
// product is accumulated in the same predicate order and 1*x == x).
//
//statcheck:hot
func feedChunk(ch data.Chunk, p *scanPlan, dst []consumer, s *probeScratch) {
	n := ch.Len()
	s.grow(n, p)
	for i, pr := range p.probes {
		pr.o.multiplicityBatch(ch.Cols[pr.col], s.ans[i][:n], s)
	}
	for i, col := range p.sorts {
		s.argsort(ch.Cols[col], &s.tsort[i])
	}
	for ji, j := range p.jobs {
		var m []float64
		if len(j.preds) == 1 {
			// Single predicate: its answers are the stream.
			m = s.ans[j.preds[0].probe][:n]
		} else {
			m = s.m[:n]
			for r := range m {
				m[r] = 1
			}
			for _, jp := range j.preds {
				for r, a := range s.ans[jp.probe][:n] {
					m[r] *= a
				}
			}
		}
		var ts *sortedCol
		if j.sort >= 0 {
			ts = &s.tsort[j.sort]
		}
		dst[ji].addChunk(ch.Cols[j.targetCol], m, ts)
	}
}

// runSharedScan performs one sequential scan over the table and feeds every
// job, using up to parallelism goroutines (0 = GOMAXPROCS; the worker
// count is additionally capped by the number of chunks, so small tables run
// serially). The per-worker probe scratch is accounted against gov through
// one pooled grant, released when the scan completes; a nil governor means
// unlimited.
//
// The scan streams the table through data.ChunkReader windows instead of an
// eager chunk array, so a segment-backed table is never materialized: each
// worker decodes blocks into its own reader's scratch (accounted on the same
// pooled grant) as it goes. Chunk Seq numbers come from the table's global
// chunk grid, so the Seq-ordered merge — and the results — are identical
// between in-memory and segment-backed tables at every parallelism.
//
// It returns the number of workers the scan ran with (0 when it read
// nothing).
func runSharedScan(t *data.Table, jobs []*scanJob, parallelism int, gov *mem.Governor) (int, error) {
	if len(jobs) == 0 {
		return 0, nil
	}
	plan := planScan(jobs)
	for _, c := range plan.cols {
		if !t.HasColumn(c) {
			return 0, fmt.Errorf("sit: table %q has no column %q", t.Name(), c)
		}
	}
	nchunks := t.NumChunks(scanChunkRows)
	if nchunks == 0 {
		return 0, nil
	}
	grant := gov.Grant("scan-scratch")
	defer grant.Close()
	plan.tabulate(t.NumRows(), grant)
	workers := min(exec.ResolveParallelism(parallelism), nchunks)
	// Later windows' shards may buffer their whole window. A width whose
	// shards the budget refuses narrows the scan, down to serial, which
	// buffers nothing: exact results are the same at every width, and
	// sampled shards reserve nothing, so they are never refused.
	for ; workers > 1; workers-- {
		if grant.TryReserve(plan.shardBytes(t.NumRows(), nchunks, workers)) {
			break
		}
	}
	if workers <= 1 {
		return 1, scanSerial(t, plan, grant)
	}
	return workers, scanParallel(t, plan, nchunks, workers, grant)
}

// window returns worker w's chunk window [lo, hi) of a grid of nchunks
// chunks over nrows rows split between workers, and the rows it holds.
func window(nrows, nchunks, workers, w int) (lo, hi, rows int) {
	lo, hi = w*nchunks/workers, (w+1)*nchunks/workers
	return lo, hi, min(hi*scanChunkRows, nrows) - lo*scanChunkRows
}

// shardBytes is what the shards of windows 1..workers-1 buffer for every
// job. Only exact consumers' shards buffer per row; sampled shards keep a
// fixed reservoir.
func (p *scanPlan) shardBytes(nrows, nchunks, workers int) int64 {
	var n int64
	for _, j := range p.jobs {
		if _, ok := j.cons.(*fullConsumer); !ok {
			continue
		}
		for w := 1; w < workers; w++ {
			_, _, rows := window(nrows, nchunks, workers, w)
			n += fullShardBytes(rows)
		}
	}
	return n
}

// scanWindow streams the chunks [lo, hi) of the table's grid (hi <= 0: to the
// end) through a private reader and scratch into dst.
func scanWindow(t *data.Table, plan *scanPlan, dst []consumer, grant *mem.Grant, lo, hi int) error {
	rd, err := t.OpenChunksSpec(scanChunkRows, data.ScanSpec{Grant: grant, Lo: lo, Hi: hi}, plan.cols...)
	if err != nil {
		return err
	}
	defer rd.Close() //statcheck:ignore droppederr read-only reader; scan errors surface from Next
	scratch := probeScratch{grant: grant}
	for {
		ch, ok, err := rd.Next()
		if err != nil || !ok {
			return err
		}
		feedChunk(ch, plan, dst, &scratch)
	}
}

// scanSerial feeds every chunk in order from the calling goroutine straight
// into the root consumers: exactly the original single-threaded behavior for
// sampled consumers, while exact consumers fold per chunk either way, so the
// serial result matches the parallel one bit for bit.
func scanSerial(t *data.Table, plan *scanPlan, grant *mem.Grant) error {
	dst := make([]consumer, len(plan.jobs))
	for i, j := range plan.jobs {
		dst[i] = j.cons
	}
	return scanWindow(t, plan, dst, grant, 0, 0)
}

// scanParallel partitions the chunk grid into contiguous windows, one per
// worker, streams each window as one exec.ForkJoin index into private
// consumer shards, and merges the shards back in worker order — which is
// chunk order. Window boundaries depend only on (nchunks, workers), so the
// merge order — and for exact consumers the result itself — is independent
// of goroutine scheduling.
func scanParallel(t *data.Table, plan *scanPlan, nchunks, workers int, grant *mem.Grant) error {
	shards := make([][]consumer, workers)
	errs := make([]error, workers)
	exec.ForkJoin(workers, workers, func(w int) {
		lo, hi, rows := window(t.NumRows(), nchunks, workers, w)
		dst := make([]consumer, len(plan.jobs))
		for ji, j := range plan.jobs {
			if dst[ji], errs[w] = j.cons.fork(w, rows); errs[w] != nil {
				return
			}
		}
		shards[w] = dst
		errs[w] = scanWindow(t, plan, dst, grant, lo, hi)
	})
	if err := firstError(errs); err != nil {
		return err
	}
	// Jobs are independent of one another, so their merges run side by side;
	// within a job the shards still arrive in worker order.
	errs = make([]error, len(plan.jobs))
	exec.ForkJoin(len(plan.jobs), workers, func(ji int) {
		for _, dst := range shards {
			if errs[ji] = plan.jobs[ji].cons.merge(dst[ji]); errs[ji] != nil {
				return
			}
		}
	})
	return firstError(errs)
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
