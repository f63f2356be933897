package sit

import (
	"fmt"

	"github.com/sitstats/sits/internal/btree"
	"github.com/sitstats/sits/internal/histogram"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/radix"
	"github.com/sitstats/sits/internal/sample"
)

// oracle is the m-Oracle of Section 3.1: it estimates (or computes) the
// multiplicity of the scanned tuples' join-attribute values in the joined
// relation, one chunk column at a time. multiplicityBatch fills out[i] with
// the multiplicity of vals[i] (out and vals have equal length).
// histOracle and indexOracle sort a permutation of the probe vector and
// answer it in ascending order — histogram oracles then walk their bucket
// lists once per chunk and index oracles follow the B+tree leaf chain with
// one descent per distinct-key jump — and scatter the answers back through
// the permutation. A shared scan swaps a histogram oracle whose span is
// small enough for a tableOracle, which answers each row with one load.
//
// The caller supplies the probeScratch backing the argsort and answer
// buffers: oracles are shared across scanning goroutines and must hold no
// per-probe state of their own.
type oracle interface {
	multiplicityBatch(vals []int64, out []float64, s *probeScratch)
}

// sortedCol is the stable ascending argsort of one chunk column:
// vals[i] = column[perm[i]], and rows holding equal values keep their row
// order in perm.
type sortedCol struct {
	perm []int32
	vals []int64
}

// argsort sorts a chunk column into dst with the shared radix kernel rather
// than a comparison sort — chunk vectors are a few thousand elements, where
// comparator closures cost more than the batched walk saves. dst's buffers
// are grown on demand and, after an odd number of scatter passes, traded with
// the scratch's ping-pong partners instead of copied back.
//
//statcheck:hot
func (s *probeScratch) argsort(col []int64, dst *sortedCol) {
	n := len(col)
	s.growSort(n)
	if cap(dst.vals) < n {
		// vals at 8 B and perm at 4 B per element, net of the buffers replaced.
		s.grant.Force(12 * int64(n-cap(dst.vals)))
		dst.vals = make([]int64, n)
		dst.perm = make([]int32, n)
	}
	vals, perm := dst.vals[:n], dst.perm[:n]
	copy(vals, col)
	for i := range perm {
		perm[i] = int32(i)
	}
	dst.vals, dst.perm = radix.Sort(vals, s.keys2, perm, s.perm2)
	if n > 0 && &dst.vals[0] != &vals[0] {
		s.keys2, s.perm2 = vals, perm
	}
}

// histOracle implements getMultiplicity of Section 3.1.1: the expected
// multiplicity under the containment assumption, computed from the histogram
// over the joined side (child: a base histogram or an intermediate SIT) and
// the base histogram over the scanned attribute (parent).
type histOracle struct {
	child, parent *histogram.Histogram
}

//statcheck:hot
func (o histOracle) multiplicityBatch(vals []int64, out []float64, s *probeScratch) {
	s.argsort(vals, &s.probe)
	ms := s.f64[:len(vals)]
	histogram.ContainmentMultiplicitySorted(o.child, o.parent, s.probe.vals, ms)
	for i, p := range s.probe.perm {
		out[p] = ms[i]
	}
}

// tableFill is how many values of a table one ContainmentMultiplicitySorted
// call fills: the probe range is a block of fixed scratch, not a copy of
// the whole span.
const tableFill = 4096

// table tabulates the oracle over the child histogram's span [lo, hi]:
// tab[v-lo] is the multiplicity of v, and values outside the span answer 0,
// as they miss every child bucket. It returns nil, leaving the oracle to
// argsort its probes, when radix.Dense does not admit the span against
// slots or grant refuses the table's bytes. The table is filled block by
// block by ContainmentMultiplicitySorted over the ascending range, so each
// entry is the sorted walk's answer bit for bit.
func (o histOracle) table(slots int, grant *mem.Grant) *tableOracle {
	b := o.child.Buckets
	if len(b) == 0 {
		return &tableOracle{}
	}
	lo, hi := b[0].Lo, b[len(b)-1].Hi
	if !radix.Dense(lo, hi, slots) {
		return nil
	}
	n := int(uint64(hi)-uint64(lo)) + 1
	fill := min(n, tableFill)
	// The table stays for the scan; the fill block is released once filled.
	if !grant.TryReserve(8 * int64(n+fill)) {
		return nil
	}
	tab, vals := make([]float64, n), make([]int64, fill)
	child, parent := *o.child, *o.parent
	for i := 0; i < n; i += fill {
		blk := vals[:min(fill, n-i)]
		for j := range blk {
			blk[j] = lo + int64(i+j)
		}
		// The walk would pass the buckets that end below the block anyway;
		// dropping them keeps the whole fill one pass over each list.
		for len(child.Buckets) > 0 && child.Buckets[0].Hi < blk[0] {
			child.Buckets = child.Buckets[1:]
		}
		for len(parent.Buckets) > 0 && parent.Buckets[0].Hi < blk[0] {
			parent.Buckets = parent.Buckets[1:]
		}
		histogram.ContainmentMultiplicitySorted(&child, &parent, blk, tab[i:i+len(blk)])
	}
	grant.Release(8 * int64(fill))
	return &tableOracle{tab: tab, lo: lo}
}

// tableOracle is a histogram m-Oracle tabulated over its child's span (see
// histOracle.table). It is a pointer so that it stays comparable.
type tableOracle struct {
	tab []float64
	lo  int64
}

//statcheck:hot
func (o *tableOracle) multiplicityBatch(vals []int64, out []float64, _ *probeScratch) {
	out = out[:len(vals)]
	for i, v := range vals {
		if d := uint64(v) - uint64(o.lo); d < uint64(len(o.tab)) {
			out[i] = o.tab[d]
		} else {
			out[i] = 0
		}
	}
}

// indexOracle implements the SweepIndex m-Oracle: an exact duplicate count
// from a B+tree over the joined base table's attribute.
type indexOracle struct {
	idx *btree.Tree
}

//statcheck:hot
func (o indexOracle) multiplicityBatch(vals []int64, out []float64, s *probeScratch) {
	s.argsort(vals, &s.probe)
	counts := s.i64[:len(vals)]
	o.idx.CountsSorted(s.probe.vals, counts)
	for i, p := range s.probe.perm {
		out[p] = float64(counts[i])
	}
}

// consumer absorbs the streamed (value, multiplicity) pairs of Sweep's step 3
// and produces the final histogram. Parallel scans never feed a shared
// consumer: each worker streams its window of the chunk grid into a private
// shard obtained from fork, and completed shards are folded back with merge.
type consumer interface {
	// addChunk absorbs one chunk's stream: target[r] with multiplicity m[r]
	// for every row with m[r] > 0, in row order. m is shared between the
	// scan's jobs and must not be modified. ts is the chunk's argsort of the
	// target column when sortsTarget is true, nil otherwise.
	addChunk(target []int64, m []float64, ts *sortedCol)
	// sortsTarget reports whether addChunk consumes the target column's
	// argsort; the scan computes it once per distinct target attribute.
	sortsTarget() bool
	// result returns the histogram (with nb buckets, built by method) and the
	// total streamed mass (the estimated cardinality of the generating
	// query's result).
	result(nb int, method histogram.Method) (*histogram.Histogram, float64, error)
	// fork returns the consumer scan worker i streams its window into: a
	// private shard, or for the exact consumer's worker 0, whose window
	// precedes every other, the receiver itself. rows bounds the rows the
	// window streams; a shard that buffers per row sizes itself to it once,
	// and the scan has reserved its bytes beforehand. Shard seeds are
	// derived deterministically from the root consumer's seed and i, so a
	// scan partitioned the same way always produces the same shards. fork
	// only reads immutable state and is safe to call concurrently (for
	// distinct i).
	fork(i, rows int) (consumer, error)
	// merge folds a completed shard produced by fork back into the receiver
	// (a no-op for the receiver itself). Callers must merge shards in worker
	// order — chunk order, since workers own contiguous windows — so merges
	// that are sensitive to ordering (floating-point accumulation) stay
	// deterministic.
	merge(shard consumer) error
}

// sampledConsumer is Sweep's default: stochastic-rounding reservoir sampling
// (Algorithm R over the replicated stream) followed by a histogram over the
// sample, scaled to the streamed mass. Per-bucket distinct counts are
// corrected with the GEE estimator (the sampling assumption of Section 2.1).
type sampledConsumer struct {
	res  *sample.Reservoir
	mass float64
	seed int64
}

func newSampledConsumer(k int, seed int64) (*sampledConsumer, error) {
	r, err := sample.NewReservoir(k, seed)
	if err != nil {
		return nil, err
	}
	return &sampledConsumer{res: r, seed: seed}, nil
}

//statcheck:hot
func (c *sampledConsumer) addChunk(target []int64, m []float64, _ *sortedCol) {
	for r, mv := range m {
		if mv > 0 {
			c.mass += mv
			c.res.AddWeighted(target[r], mv)
		}
	}
}

func (c *sampledConsumer) sortsTarget() bool { return false }

func (c *sampledConsumer) result(nb int, method histogram.Method) (*histogram.Histogram, float64, error) {
	h, err := histogramFromSample(c.res.Sample(), c.mass, nb, method)
	return h, c.mass, err
}

func (c *sampledConsumer) fork(i, _ int) (consumer, error) {
	return newSampledConsumer(c.res.Cap(), shardSeed(c.seed, i))
}

func (c *sampledConsumer) merge(shard consumer) error {
	s, ok := shard.(*sampledConsumer)
	if !ok {
		return fmt.Errorf("sit: cannot merge %T into sampled consumer", shard)
	}
	c.mass += s.mass
	return c.res.Merge(s.res)
}

// histogramFromSample builds a histogram over sample values, scales it to the
// full stream mass, and replaces per-bucket distinct counts with GEE
// estimates against the scaled bucket populations.
func histogramFromSample(vals []int64, mass float64, nb int, method histogram.Method) (*histogram.Histogram, error) {
	// One sorted copy of the sample serves both the tally and the bucket walk.
	sorted := radix.SortedCopy(vals)
	h, err := histogram.FromPairs(histogram.TallySorted(sorted), nb, method)
	if err != nil {
		return nil, err
	}
	if h.NumBuckets() == 0 || mass <= 0 {
		return &histogram.Histogram{}, nil
	}
	scaled := h.ScaleTo(mass)
	// Buckets are sorted and disjoint, so a single merge pass over the sorted
	// sample assigns every value to its bucket; GEE is frequency-based and
	// insensitive to the order of its input.
	next := 0
	for i := range scaled.Buckets {
		b := &scaled.Buckets[i]
		for next < len(sorted) && sorted[next] < b.Lo {
			next++
		}
		end := next
		for end < len(sorted) && sorted[end] <= b.Hi {
			end++
		}
		d := sample.EstimateDistinct(sorted[next:end], int64(b.Freq+0.5))
		next = end
		if d > b.Width() {
			d = b.Width()
		}
		if d > b.Freq {
			d = b.Freq
		}
		b.Distinct = d
	}
	return scaled, nil
}

// foldBatch is the smallest backlog of pending partial entries a root
// fullConsumer folds at once; above it the batch is the root's own size, so a
// serial scan keeps O(distinct values) entries resident and each fold is paid
// for by at least as many new entries as root entries it rewrites.
const foldBatch = 64 << 10

// fullConsumer aggregates the whole stream exactly (SweepFull and SweepExact:
// no sampling assumption) into per-value sums. This mirrors the paper's
// "materialize the temporary table" with the aggregation done on the fly,
// which is equivalent for histogram construction.
//
// Every per-value sum is associated the same way at every parallelism level:
// a chunk's rows fold in row order into one partial, and the root folds
// partials left to right in chunk order with its own running sum as the
// leftmost operand. Worker 0 streams into the root itself, since nothing
// precedes its window; later workers' shards only collect partials — folding
// two of them ahead of the root would re-associate the sum.
//
// The root holds its sums in one of two forms, chosen at every fold by
// radix.Dense (see denseSlots). Dense: acc[i] is the sum of value lo+i over a
// window that covers every value folded so far, and each pending entry is
// added onto its slot in arrival order. Sorted: root holds (value, sum) pairs
// strictly ascending, and each batch is radix-sorted and merged in. Per value
// both compute ((w1 + w2) + w3)... in chunk order, since an empty dense slot
// is 0 and 0 + w == w for the positive weights streamed here, so the forms
// are bit-identical and a fold may switch between them at any batch.
type fullConsumer struct {
	// Dense form: acc[i] sums value lo+i, 0 where none has streamed.
	acc []float64
	lo  int64
	// Sorted form: root holds the folded sums, strictly ascending by value;
	// spare is the next merge's output buffer.
	root, spare []histogram.ValueFreq
	mass        float64
	// Pending chunk partials, concatenated in chunk order: each partial is
	// strictly ascending by value, and pm holds one streamed mass per partial.
	pv []int64
	pw []float64
	pm []float64
	// tv/tw are the radix ping-pong partners of a sorted merge's batch.
	tv []int64
	tw []float64
	// shard marks a worker shard, which never folds: fork sizes its pending
	// buffers once to its window's rows.
	shard bool
}

func newFullConsumer() *fullConsumer { return &fullConsumer{} }

// addChunk run-folds the chunk into one pending partial: walking the target
// argsort visits equal values adjacently and — the sort being stable — in row
// order, so each run's sum associates exactly as row-at-a-time accumulation
// from zero does.
//
//statcheck:hot
func (c *fullConsumer) addChunk(_ []int64, m []float64, ts *sortedCol) {
	mass := 0.0
	for _, mv := range m {
		if mv > 0 {
			mass += mv
		}
	}
	c.pm = append(c.pm, mass)
	start := len(c.pv)
	if cap(c.pv)-start < len(m) {
		// Only a root grows here. A backlog past one chunk waits for a fold
		// batch, so it grows to one at once; past that, by doubling, as it
		// is bounded by max(|root|, foldBatch).
		grown := max(2*cap(c.pv), start+len(m))
		if start > 0 {
			grown = max(grown, foldBatch+len(m))
		}
		pv, pw := make([]int64, start, grown), make([]float64, start, grown)
		copy(pv, c.pv)
		copy(pw, c.pw)
		c.pv, c.pw = pv, pw
	}
	pv, pw := c.pv[:start+len(m)], c.pw[:start+len(m)]
	k := start
	for i, r := range ts.perm {
		mv := m[r]
		if !(mv > 0) {
			continue
		}
		if v := ts.vals[i]; k > start && pv[k-1] == v {
			pw[k-1] += mv
		} else {
			pv[k], pw[k] = v, mv
			k++
		}
	}
	c.pv, c.pw = pv[:k], pw[:k]
	if !c.shard && (k >= max(len(c.root), foldBatch) || start == 0 && k > 0 && c.takes(pv[0], pv[k-1])) {
		c.absorb(c)
	}
}

// takes reports whether a root folds a lone partial over [lo, hi] at once,
// not waiting for a batch: when its dense window already covers [lo, hi],
// so the fold is one add per entry with no sort, merge or re-base to
// amortize, and the backlog stays one chunk.
func (c *fullConsumer) takes(lo, hi int64) bool {
	return len(c.acc) > 0 && lo >= c.lo && uint64(hi)-uint64(c.lo) < uint64(len(c.acc))
}

func (c *fullConsumer) sortsTarget() bool { return true }

// absorb folds from's pending partials (from is the receiver itself or a
// finished shard) into the root, a bounded batch at a time, and empties them.
// Batches may split a partial: what matters is only that entries reach the
// root in chunk order.
//
//statcheck:hot
func (c *fullConsumer) absorb(from *fullConsumer) {
	for _, cm := range from.pm {
		c.mass += cm
	}
	for pv, pw := from.pv, from.pw; len(pv) > 0; {
		n := min(len(pv), max(len(c.root), foldBatch))
		c.fold(pv[:n], pw[:n])
		pv, pw = pv[n:], pw[n:]
	}
	from.pv, from.pw, from.pm = from.pv[:0], from.pw[:0], from.pm[:0]
}

// denseSlots bounds the dense window when d distinct values are folded and
// a batch of n entries arrives, by the 8-byte words the sorted form would
// hold for the same state: its root (2d), the spare the merge writes into
// (2(d+n)) and the batch's ping-pong buffers (2n). Under a floor of
// foldBatch slots, the window never holds more bytes than the sorted form,
// so a serial scan stays O(distinct + batch) resident in either form.
func denseSlots(d, n int) int { return max(foldBatch, 4*(d+n)) }

// fold adds a non-empty batch of pending entries (clobbered) onto the root.
// A batch inside the dense window is added in place; otherwise the root takes
// the dense form over its new span when radix.Dense allows that span and the
// sorted form when not, converting itself when the form changes.
//
//statcheck:hot
func (c *fullConsumer) fold(pv []int64, pw []float64) {
	lo, hi := radix.Bounds(pv)
	d := len(c.root)
	if len(c.acc) > 0 {
		top := c.lo + int64(len(c.acc)-1)
		if lo >= c.lo && hi <= top {
			addDense(c.acc, c.lo, pv, pw)
			return
		}
		lo, hi, d = min(lo, c.lo), max(hi, top), occupied(c.acc)
	} else if d > 0 {
		lo, hi = min(lo, c.root[0].Value), max(hi, c.root[d-1].Value)
	}
	if radix.Dense(lo, hi, denseSlots(d, len(pv))) {
		c.rebase(lo, hi)
		addDense(c.acc, c.lo, pv, pw)
		return
	}
	if len(c.acc) > 0 {
		c.root, c.acc = c.densePairs(), nil
	}
	c.mergeSorted(pv, pw)
}

// rebase moves the sums into a dense window over exactly [lo, hi], which
// covers every value folded so far, and drops the sorted form's buffers.
func (c *fullConsumer) rebase(lo, hi int64) {
	acc := make([]float64, uint64(hi)-uint64(lo)+1)
	if len(c.acc) > 0 {
		copy(acc[uint64(c.lo)-uint64(lo):], c.acc)
	}
	for _, p := range c.root {
		acc[uint64(p.Value)-uint64(lo)] = p.Freq
	}
	c.acc, c.lo = acc, lo
	c.root, c.spare, c.tv, c.tw = nil, nil, nil, nil
}

// addDense adds every pending entry onto its window slot, in arrival order.
//
//statcheck:hot
func addDense(acc []float64, lo int64, pv []int64, pw []float64) {
	pw = pw[:len(pv)]
	for i, v := range pv {
		acc[uint64(v)-uint64(lo)] += pw[i]
	}
}

// occupied counts the dense window's non-zero slots.
//
//statcheck:hot
func occupied(acc []float64) int {
	n := 0
	for _, w := range acc {
		if w != 0 {
			n++
		}
	}
	return n
}

// densePairs returns the dense window's sums as ascending pairs of exact
// length.
func (c *fullConsumer) densePairs() []histogram.ValueFreq {
	out := make([]histogram.ValueFreq, 0, occupied(c.acc))
	for i, w := range c.acc {
		if w != 0 {
			out = append(out, histogram.ValueFreq{Value: c.lo + int64(i), Freq: w})
		}
	}
	return out
}

// mergeSorted adds a batch onto the sorted root. A stable sort by value keeps each
// value's weights in chunk order; one 2-way merge against the root then adds
// them left to right onto the root's sum (or onto the first of them when the
// value is new).
//
//statcheck:hot
func (c *fullConsumer) mergeSorted(pv []int64, pw []float64) {
	n := len(pv)
	if cap(c.tv) < n {
		c.tv, c.tw = make([]int64, n), make([]float64, n)
	}
	sv, sw := radix.Sort(pv, c.tv[:n], pw, c.tw[:n])
	root, out := c.root, c.spare[:0]
	if cap(out) < len(root)+n {
		out = make([]histogram.ValueFreq, 0, len(root)+n)
	}
	i := 0
	for j := 0; j < n; {
		v := sv[j]
		for i < len(root) && root[i].Value < v {
			out = append(out, root[i])
			i++
		}
		var acc float64
		if i < len(root) && root[i].Value == v {
			acc = root[i].Freq
			i++
		} else {
			acc = sw[j]
			j++
		}
		for j < n && sv[j] == v {
			acc += sw[j]
			j++
		}
		out = append(out, histogram.ValueFreq{Value: v, Freq: acc})
	}
	out = append(out, root[i:]...)
	c.root, c.spare = out, root
}

func (c *fullConsumer) result(nb int, method histogram.Method) (*histogram.Histogram, float64, error) {
	c.absorb(c)
	if len(c.acc) > 0 {
		c.root, c.acc = c.densePairs(), nil
	}
	h, err := histogram.FromPairs(c.root, nb, method)
	return h, c.mass, err
}

// fullShardBytes covers the pending buffers of a fullConsumer shard sized to
// its whole window of rows: a partial holds at most one entry per row, and
// pm one mass per chunk.
func fullShardBytes(rows int) int64 {
	return 16*int64(rows) + 8*int64(windowChunks(rows))
}

func windowChunks(rows int) int { return (rows + scanChunkRows - 1) / scanChunkRows }

// fork hands worker 0 the root and every later worker a shard whose pending
// buffers hold its whole window, so they never grow.
func (c *fullConsumer) fork(i, rows int) (consumer, error) {
	if i == 0 {
		return c, nil
	}
	chunks := windowChunks(rows)
	return &fullConsumer{
		pv:    make([]int64, 0, rows),
		pw:    make([]float64, 0, rows),
		pm:    make([]float64, 0, chunks),
		shard: true,
	}, nil
}

// merge folds the shard's partials in behind the receiver's own: shards
// arrive in worker order, which is chunk order.
func (c *fullConsumer) merge(shard consumer) error {
	s, ok := shard.(*fullConsumer)
	if !ok {
		return fmt.Errorf("sit: cannot merge %T into full consumer", shard)
	}
	if s == c {
		return nil
	}
	c.absorb(c)
	c.absorb(s)
	return nil
}

// jobPred is one join predicate of the scan: the scanned table's attribute
// and the oracle that answers multiplicities for it. probe is the predicate's
// slot among the scan's distinct probes (scanPlan.probes), resolved once per
// scan by planScan so the per-chunk loop never touches a name map.
type jobPred struct {
	attr  string
	o     oracle
	probe int
}

// scanJob is one SIT produced by a shared sequential scan (Section 4's
// "sharing the same sequential scan to build more than one SIT"): the target
// attribute whose values are streamed, the per-predicate oracles whose
// multiplicities are multiplied (acyclic multi-child case, Section 3.2), and
// the consumer that absorbs the stream. targetCol is the target attribute's
// resolved column offset; sort is the job's slot among the scan's distinct
// target argsorts (scanPlan.sorts), -1 when its consumer takes rows.
type scanJob struct {
	targetAttr string
	targetCol  int
	sort       int
	preds      []jobPred
	cons       consumer
}
