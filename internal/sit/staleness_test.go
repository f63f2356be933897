package sit

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"github.com/sitstats/sits/internal/btree"
	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/datagen"
	"github.com/sitstats/sits/internal/exec"
	"github.com/sitstats/sits/internal/histogram"
	"github.com/sitstats/sits/internal/query"
)

func TestCheckStaleness(t *testing.T) {
	cat := smallJoinCatalog(t)
	b := newBuilder(t, cat)
	spec := singleJoinSpec(t)
	s, err := b.Build(spec, SweepFull)
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.CheckStaleness(s, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stale {
		t.Errorf("fresh SIT reported stale: %+v", st)
	}
	// Grow R by 50%: past the 20% threshold.
	r := cat.MustTable("R")
	for i := 0; i < 3; i++ {
		r.AppendRow(5)
	}
	st, err = b.CheckStaleness(s, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Stale {
		t.Errorf("grown base table not reported stale: %+v", st)
	}
	if g := st.Growth["R"]; math.Abs(g-0.5) > 1e-9 {
		t.Errorf("R growth = %v, want 0.5", g)
	}
	if g := st.Growth["S"]; g != 0 {
		t.Errorf("S growth = %v, want 0", g)
	}
	// Validation.
	if _, err := b.CheckStaleness(nil, 0.2); err == nil {
		t.Error("nil SIT: want error")
	}
	if _, err := b.CheckStaleness(s, -1); err == nil {
		t.Error("negative threshold: want error")
	}
}

func TestLoadedSITsReportStale(t *testing.T) {
	cat := smallJoinCatalog(t)
	b := newBuilder(t, cat)
	s, err := b.Build(singleJoinSpec(t), SweepFull)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSITs(&buf, []*SIT{s}); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSITs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.CheckStaleness(loaded[0], 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Stale {
		t.Error("SIT without a snapshot should report stale (conservative)")
	}
}

func TestRefreshStale(t *testing.T) {
	cat := smallJoinCatalog(t)
	b := newBuilder(t, cat)
	spec := singleJoinSpec(t)
	s, err := b.Build(spec, SweepExact)
	if err != nil {
		t.Fatal(err)
	}
	before := s.EstimatedCard // exact: 9
	// Append matching rows: the true join grows.
	r := cat.MustTable("R")
	for i := 0; i < 6; i++ {
		r.AppendRow(4) // joins the S row (4, 40)
	}
	refreshed, rebuilt, err := b.RefreshStale([]*SIT{s}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != 1 {
		t.Fatalf("rebuilt = %v", rebuilt)
	}
	if refreshed[0] == s {
		t.Fatal("stale SIT not rebuilt")
	}
	if refreshed[0].EstimatedCard != before+6 {
		t.Errorf("refreshed cardinality = %v, want %v", refreshed[0].EstimatedCard, before+6)
	}
	// A fresh SIT passes through untouched and nothing is rebuilt again.
	again, rebuilt2, err := b.RefreshStale(refreshed, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt2) != 0 || again[0] != refreshed[0] {
		t.Errorf("second refresh rebuilt %v", rebuilt2)
	}
}

func TestRefreshStaleInvalidatesSharedIntermediates(t *testing.T) {
	cfg := datagen.DefaultChainConfig()
	cfg.Rows = []int{300, 250, 200, 150}
	cfg.Domain = 50
	cat, err := datagen.ChainDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := newBuilder(t, cat)
	e3, err := query.Chain([]string{"T1", "T2", "T3"}, []string{"jnext", "jnext"}, []string{"jprev", "jprev"})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := query.NewSITSpec("T3", "a", e3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := b.Build(spec, SweepExact)
	if err != nil {
		t.Fatal(err)
	}
	// Grow T1 substantially: the intermediate SIT(T2.jnext | T1⋈T2) is stale.
	t1 := cat.MustTable("T1")
	n := t1.NumRows()
	jn := t1.MustColumn("jnext")
	for i := 0; i < n; i++ {
		t1.AppendRow(jn[i%len(jn)], 1, 1, 1)
	}
	refreshed, rebuilt, err := b.RefreshStale([]*SIT{s}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != 1 {
		t.Fatalf("rebuilt = %v", rebuilt)
	}
	// SweepExact is exact: the refreshed cardinality must match the new truth.
	truth, err := exec.Cardinality(cat, e3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(refreshed[0].EstimatedCard-float64(truth)) > 1e-6*float64(truth) {
		t.Errorf("refreshed card %v != true %d (stale intermediate reused?)",
			refreshed[0].EstimatedCard, truth)
	}
}

// appendSkewed appends n rows to the table whose every column is far outside
// the existing domain, so any statistic that misses them differs visibly.
func appendSkewed(t *testing.T, tab *data.Table, n int) {
	t.Helper()
	cols := make([][]int64, tab.NumCols())
	for c := range cols {
		cols[c] = make([]int64, n)
		for i := range cols[c] {
			cols[c][i] = int64(1_000_000 + 7*i + c)
		}
	}
	if err := tab.AppendColumns(cols...); err != nil {
		t.Fatal(err)
	}
}

// TestBaseStatisticsFollowTableGeneration: base histograms, 2-D histograms
// and indexes of a table no stale SIT covers must still notice an append —
// the caches carry the table's data generation, so the next lookup is a miss
// that overwrites the entry in place.
func TestBaseStatisticsFollowTableGeneration(t *testing.T) {
	cat := chainCatalog(t)
	b := newBuilder(t, cat)
	covered, err := b.Build(mustSpec(t, registrySpecs[0]), SweepExact) // T1 JOIN T2: nothing over T4
	if err != nil {
		t.Fatal(err)
	}
	warm := func(b *Builder) (*histogram.Histogram, *btree.Tree) {
		t.Helper()
		h, err := b.BaseHistogram("T4", "a")
		if err != nil {
			t.Fatal(err)
		}
		idx, err := b.Index("T4", "jprev")
		if err != nil {
			t.Fatal(err)
		}
		return h, idx
	}
	staleH, staleIdx := warm(b)
	entries := len(b.base) + len(b.idx)

	t4 := cat.MustTable("T4")
	appendSkewed(t, t4, t4.NumRows()/4)
	// T4 grew, but the only SIT touches T1 and T2: the refresh rebuilds nothing.
	if _, rebuilt, err := b.RefreshStale([]*SIT{covered}, 0.2); err != nil || len(rebuilt) != 0 {
		t.Fatalf("refresh rebuilt %v, err %v; want nothing", rebuilt, err)
	}

	gotH, gotIdx := warm(b)
	wantH, wantIdx := warm(newBuilder(t, cat))
	if gotH == staleH || !reflect.DeepEqual(gotH, wantH) {
		t.Errorf("base histogram of T4.a is stale after the append:\n got %v\nwant %v", gotH, wantH)
	}
	if gotIdx == staleIdx || gotIdx.Len() != wantIdx.Len() ||
		gotIdx.Count(1_000_000) != wantIdx.Count(1_000_000) {
		t.Errorf("index on T4.jprev is stale after the append: %d keys, want %d", gotIdx.Len(), wantIdx.Len())
	}
	if n := len(b.base) + len(b.idx); n != entries {
		t.Errorf("caches hold %d entries after the append, %d before: old generations leak", n, entries)
	}
	// Unchanged tables keep their cached statistics.
	h1, err := b.BaseHistogram("T1", "a")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := b.BaseHistogram("T1", "a"); again != h1 {
		t.Error("base histogram of an unchanged table was rebuilt")
	}
}
