package sit

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/exec"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/query"
)

// multiChunkCatalog builds R(x), S(y, a) with S spanning several scan chunks
// (rows > scanChunkRows), so shared scans genuinely fan out across workers.
func multiChunkCatalog(t testing.TB, rows int) *data.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	r := data.MustNewTable("R", "x")
	for i := 0; i < rows/8; i++ {
		if err := r.AppendRow(rng.Int63n(500)); err != nil {
			t.Fatal(err)
		}
	}
	s := data.MustNewTable("S", "y", "a")
	for i := 0; i < rows; i++ {
		if err := s.AppendRow(rng.Int63n(500), rng.Int63n(2000)); err != nil {
			t.Fatal(err)
		}
	}
	cat := data.NewCatalog()
	cat.MustAdd(r)
	cat.MustAdd(s)
	return cat
}

func buildAt(t *testing.T, cat *data.Catalog, spec query.SITSpec, m Method, parallelism int) *SIT {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Parallelism = parallelism
	b, err := NewBuilder(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := b.Build(spec, m)
	if err != nil {
		t.Fatalf("%v at parallelism %d: %v", m, parallelism, err)
	}
	return s
}

func sameSIT(a, b *SIT) bool {
	return a.EstimatedCard == b.EstimatedCard && reflect.DeepEqual(a.Hist, b.Hist)
}

// TestExactMethodsBitIdenticalAcrossParallelism: SweepFull and SweepExact
// aggregate per fixed-size chunk and merge in chunk order, so their SITs must
// be bit-identical at every parallelism level — the acceptance bar of the
// chunked engine.
func TestExactMethodsBitIdenticalAcrossParallelism(t *testing.T) {
	cat := multiChunkCatalog(t, 3*scanChunkRows+123)
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	spec, err := query.NewSITSpec("S", "a", e)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{SweepFull, SweepExact} {
		serial := buildAt(t, cat, spec, m, 1)
		for _, p := range []int{2, 8} {
			got := buildAt(t, cat, spec, m, p)
			if !sameSIT(serial, got) {
				t.Errorf("%v: parallelism %d differs from serial: card %v vs %v",
					m, p, got.EstimatedCard, serial.EstimatedCard)
			}
		}
	}
}

// TestExactMethodsWidthBudgetMatrix is the full determinism property of the
// pooled engine: SweepFull and SweepExact must be bit-identical across pool
// widths {1,2,4,8} × memory budgets {unlimited, quarter working set}. The
// quarter budget pushes the executor's joins into spill paths while the
// shared-scan scratch stays Force-accounted on the same governor.
func TestExactMethodsWidthBudgetMatrix(t *testing.T) {
	cat := multiChunkCatalog(t, 3*scanChunkRows+123)
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	spec, err := query.NewSITSpec("S", "a", e)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cat.Table("S")
	if err != nil {
		t.Fatal(err)
	}
	ws := int64(s.NumRows()) * int64(s.NumCols()) * 8
	build := func(m Method, parallelism int, budget int64) *SIT {
		cfg := DefaultConfig()
		cfg.Parallelism = parallelism
		cfg.MemBudget = budget
		b, err := NewBuilder(cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := b.Build(spec, m)
		if err != nil {
			t.Fatalf("%v width=%d budget=%d: %v", m, parallelism, budget, err)
		}
		return out
	}
	for _, m := range []Method{SweepFull, SweepExact} {
		serial := build(m, 1, 0)
		for _, budget := range []int64{0, ws / 4} {
			for _, p := range []int{1, 2, 4, 8} {
				if got := build(m, p, budget); !sameSIT(serial, got) {
					t.Errorf("%v width=%d budget=%d differs from serial: card %v vs %v",
						m, p, budget, got.EstimatedCard, serial.EstimatedCard)
				}
			}
		}
	}
}

// TestShardBuffersOnGovernor: a width-2 exact scan reserves its later
// shard's pending partials on the scan grant before it streams, so the
// governor's peak exceeds the serial build's by at least those bytes, and
// every byte is returned after the build. The table is wide enough that the
// later window's partials outweigh the second worker's chunk scratch, so
// leaving them off the governor fails the difference. Under a budget that
// refuses them the scan narrows to serial instead, with the same SIT.
func TestShardBuffersOnGovernor(t *testing.T) {
	const rows = 40*scanChunkRows + 123
	cat := multiChunkCatalog(t, rows)
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	spec, err := query.NewSITSpec("S", "a", e)
	if err != nil {
		t.Fatal(err)
	}
	build := func(width int, budget int64) (*SIT, int64) {
		cfg := DefaultConfig()
		cfg.Parallelism = width
		cfg.Governor = mem.NewGovernor(budget)
		b, err := NewBuilder(cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := b.Build(spec, SweepFull)
		if err != nil {
			t.Fatal(err)
		}
		if used := cfg.Governor.Used(); used != 0 {
			t.Fatalf("width %d budget %d: governor holds %d bytes after the build", width, budget, used)
		}
		return out, cfg.Governor.Peak()
	}
	nchunks := (rows + scanChunkRows - 1) / scanChunkRows
	_, _, later := window(rows, nchunks, 2, 1)
	shard := fullShardBytes(later)
	serial, serialPeak := build(1, 0)
	wide, widePeak := build(2, 0)
	if !sameSIT(serial, wide) {
		t.Fatal("width 2 differs from serial")
	}
	if widePeak < shard {
		t.Fatalf("width-2 peak %d is below the later shard's %d partial bytes", widePeak, shard)
	}
	if widePeak-serialPeak < shard {
		t.Fatalf("width-2 peak %d exceeds the serial peak %d by less than the later shard's %d partial bytes",
			widePeak, serialPeak, shard)
	}
	narrowed, narrowPeak := build(2, serialPeak+shard/2)
	if !sameSIT(serial, narrowed) {
		t.Fatal("width 2 under a budget refusing its shard differs from serial")
	}
	if narrowPeak >= serialPeak+shard {
		t.Fatalf("width-2 peak %d under a budget of %d: the refused shard was reserved anyway",
			narrowPeak, serialPeak+shard/2)
	}
}

// TestMaterializeIdenticalUnderBudget: Materialize evaluates the generating
// query with the executor, whose join spills into grace partitions under a
// budget and then emits its rows in partition order. The histogram sorts its
// input, so the SIT must be identical at budgets {unlimited, quarter working
// set, 1 byte}.
func TestMaterializeIdenticalUnderBudget(t *testing.T) {
	cat := multiChunkCatalog(t, 3*scanChunkRows+123)
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	spec, err := query.NewSITSpec("S", "a", e)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cat.Table("S")
	if err != nil {
		t.Fatal(err)
	}
	ws := int64(s.NumRows()) * int64(s.NumCols()) * 8
	var ref *SIT
	for _, budget := range []int64{0, ws / 4, 1} {
		cfg := DefaultConfig()
		cfg.MemBudget = budget
		b, err := NewBuilder(cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Build(spec, Materialize)
		if err != nil {
			t.Fatalf("budget=%d: %v", budget, err)
		}
		if budget > 0 {
			store, err := b.Governor().Runs()
			if err != nil {
				t.Fatal(err)
			}
			if store.Stats().SpilledBytes == 0 {
				t.Fatalf("budget=%d: the join never spilled; the budget regime is not exercised", budget)
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
		} else if !sameSIT(ref, got) {
			t.Errorf("budget=%d: Materialize SIT differs from the unbudgeted one: card %v vs %v",
				budget, got.EstimatedCard, ref.EstimatedCard)
		}
	}
}

// TestSampledMethodsDeterministicAtFixedParallelism: Sweep and SweepIndex
// shard their reservoirs per worker, so two runs with the same seed and the
// same parallelism level must agree bit for bit.
func TestSampledMethodsDeterministicAtFixedParallelism(t *testing.T) {
	cat := multiChunkCatalog(t, 2*scanChunkRows+57)
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	spec, err := query.NewSITSpec("S", "a", e)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{Sweep, SweepIndex} {
		for _, p := range []int{1, 2, 8} {
			first := buildAt(t, cat, spec, m, p)
			second := buildAt(t, cat, spec, m, p)
			if !sameSIT(first, second) {
				t.Errorf("%v at parallelism %d: two identically-seeded runs differ", m, p)
			}
		}
	}
}

// TestParallelSweepStatisticallySound: the sharded reservoirs must still
// produce an accurate SIT — the merged sample's total mass tracks the exact
// join cardinality within sampling noise.
func TestParallelSweepStatisticallySound(t *testing.T) {
	cat := multiChunkCatalog(t, 2*scanChunkRows+57)
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	spec, err := query.NewSITSpec("S", "a", e)
	if err != nil {
		t.Fatal(err)
	}
	exact := buildAt(t, cat, spec, SweepExact, 4)
	for _, p := range []int{1, 4} {
		got := buildAt(t, cat, spec, Sweep, p)
		ratio := got.EstimatedCard / exact.EstimatedCard
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("Sweep at parallelism %d: card %v vs exact %v (ratio %.3f)",
				p, got.EstimatedCard, exact.EstimatedCard, ratio)
		}
	}
}

// TestBuildGroupParallelMatchesSerialExact: grouped shared scans go through
// the same engine; exact methods must be unaffected by the worker count.
func TestBuildGroupParallelMatchesSerialExact(t *testing.T) {
	cat := multiChunkCatalog(t, 2*scanChunkRows+31)
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	specA, err := query.NewSITSpec("S", "a", e)
	if err != nil {
		t.Fatal(err)
	}
	specY, err := query.NewSITSpec("S", "y", e)
	if err != nil {
		t.Fatal(err)
	}
	specs := []query.SITSpec{specA, specY}
	group := func(p int) []*SIT {
		cfg := DefaultConfig()
		cfg.Parallelism = p
		b, err := NewBuilder(cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := b.BuildGroup(specs, SweepFull)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := group(1)
	parallel := group(8)
	for i := range specs {
		if !sameSIT(serial[i], parallel[i]) {
			t.Errorf("group SIT %d differs between serial and parallel", i)
		}
	}
}

func TestConfigRejectsNegativeParallelism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = -1
	if _, err := NewBuilder(data.NewCatalog(), cfg); err == nil {
		t.Error("negative parallelism: want error")
	}
}

func TestResolveParallelism(t *testing.T) {
	if got := exec.ResolveParallelism(3); got != 3 {
		t.Errorf("ResolveParallelism(3) = %d", got)
	}
	if got := exec.ResolveParallelism(0); got < 1 {
		t.Errorf("ResolveParallelism(0) = %d, want >= 1", got)
	}
}

// shardSeed must give every shard a distinct seed (collisions would correlate
// neighbouring workers' sampling streams).
func TestShardSeedsDistinct(t *testing.T) {
	seen := map[int64]int{}
	for _, base := range []int64{0, 1, 42, -7} {
		for i := 0; i < 64; i++ {
			s := shardSeed(base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("shardSeed collision: %d (shard %d) repeats seed of shard %d", s, i, prev)
			}
			seen[s] = i
		}
	}
}

// scanOn runs one SweepFull scan for spec over the catalog's table at width
// under a fresh governor of the given budget (0: unlimited), and returns
// the SIT, the width the scan ran with and the governor's peak. The child
// oracles come from b, so only the scan itself is on the governor.
func scanOn(t *testing.T, b *Builder, spec query.SITSpec, width int, budget int64) (*SIT, int, int64) {
	t.Helper()
	job, err := b.prepareJob(spec, SweepFull, b.cfg.Buckets)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := b.cat.Table(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	gov := mem.NewGovernor(budget)
	ran, err := runSharedScan(tab, []*scanJob{job}, width, gov)
	if err != nil {
		t.Fatal(err)
	}
	if used := gov.Used(); used != 0 {
		t.Fatalf("width %d budget %d: governor holds %d bytes after the scan", width, budget, used)
	}
	s, err := b.finishJob(spec, SweepFull, job, b.cfg.Buckets)
	if err != nil {
		t.Fatal(err)
	}
	return s, ran, gov.Peak()
}

// TestBudgetedScanKeepsWidth: a budget that admits the later shards'
// partial bytes keeps an exact scan parallel. A budget of width w's shard
// bytes (plus slack for the oracle's value table) runs at width w; the
// width-2 budget runs a width-4 request at width 2, not serially; and every
// budgeted SIT is bit-identical to the serial one.
func TestBudgetedScanKeepsWidth(t *testing.T) {
	const rows = 16*scanChunkRows + 123
	cat := multiChunkCatalog(t, rows)
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	spec, err := query.NewSITSpec("S", "a", e)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(cat, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nchunks := (rows + scanChunkRows - 1) / scanChunkRows
	budget := func(width int) int64 {
		// The slack covers R.x's 500-entry table and its fill block, and is
		// less than one more worker's shard bytes at these widths.
		n := int64(64 << 10)
		for w := 1; w < width; w++ {
			_, _, later := window(rows, nchunks, width, w)
			n += fullShardBytes(later)
		}
		return n
	}
	serial, _, _ := scanOn(t, b, spec, 1, 0)
	for _, w := range []int{2, 4, 8} {
		s, ran, _ := scanOn(t, b, spec, w, budget(w))
		if ran != w {
			t.Fatalf("width %d under a budget of %d ran at width %d", w, budget(w), ran)
		}
		if !sameSIT(serial, s) {
			t.Fatalf("width %d under a budget differs from serial", w)
		}
	}
	s, ran, _ := scanOn(t, b, spec, 4, budget(2))
	if ran != 2 {
		t.Fatalf("width 4 under the width-2 budget %d ran at width %d, want 2", budget(2), ran)
	}
	if !sameSIT(serial, s) {
		t.Fatal("narrowed width differs from serial")
	}
}
