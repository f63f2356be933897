package sit

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/query"
)

// goldenCatalog is a small fixed three-table chain R(x) - S(y, z, a) - T(w, b)
// whose scanned tables span several chunks, with negative values and a
// skewed join column so SweepFull streams fractional, tie-heavy weights.
func goldenCatalog(t testing.TB) *data.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(20031))
	r := data.MustNewTable("R", "x")
	for i := 0; i < 1500; i++ {
		if err := r.AppendRow(rng.Int63n(300) - 40); err != nil {
			t.Fatal(err)
		}
	}
	s := data.MustNewTable("S", "y", "z", "a")
	for i := 0; i < 2*scanChunkRows+300; i++ {
		y := rng.Int63n(300) - 40
		if rng.Intn(4) == 0 {
			y = rng.Int63n(12)
		}
		if err := s.AppendRow(y, rng.Int63n(200), rng.Int63n(3000)-1500); err != nil {
			t.Fatal(err)
		}
	}
	tt := data.MustNewTable("T", "w", "b")
	for i := 0; i < scanChunkRows+77; i++ {
		if err := tt.AppendRow(rng.Int63n(200), rng.Int63n(900)); err != nil {
			t.Fatal(err)
		}
	}
	cat := data.NewCatalog()
	cat.MustAdd(r)
	cat.MustAdd(s)
	cat.MustAdd(tt)
	return cat
}

// goldenSpecs are a 2-way SIT, a 3-way SIT rooted at the chain's end, and a
// 3-way SIT rooted in the middle (two predicates multiplied per row).
func goldenSpecs(t testing.TB) []query.SITSpec {
	t.Helper()
	var out []query.SITSpec
	for _, text := range []string{
		"S.a | R JOIN S ON R.x = S.y",
		"T.b | R JOIN S ON R.x = S.y JOIN T ON S.z = T.w",
		"S.a | R JOIN S ON R.x = S.y JOIN T ON S.z = T.w",
	} {
		spec, err := query.ParseSIT(text)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, spec)
	}
	return out
}

// goldenDigest builds the golden specs with one method on a fresh builder and
// hashes the persisted set.
func goldenDigest(t *testing.T, m Method, parallelism int) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Parallelism = parallelism
	b, err := NewBuilder(goldenCatalog(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var built []*SIT
	for _, spec := range goldenSpecs(t) {
		s, err := b.Build(spec, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		built = append(built, s)
	}
	var buf bytes.Buffer
	if err := SaveSITs(&buf, built); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestGoldenSITDigests pins the persisted bytes of every creation method on a
// fixed catalog. The constants were recorded before exact aggregation, Tally
// and MaxDiff moved off hash maps and comparison sorts; any change to the
// floating-point association of a per-value sum, to tie-breaking among equal
// MaxDiff differences, or to the order pairs reach FromPairs moves a digest.
func TestGoldenSITDigests(t *testing.T) {
	want := map[Method]string{
		HistSIT:    "37b3448e45134933b891ec2c377258d5a25866d2534f0ba217f0de2704078a31",
		Sweep:      "236fc16a39b1ec49964d7c198a8787b814e004c656e339cb9b628a5dec814530",
		SweepIndex: "4db47220925809579cf3bb60f2e4aa07d7dca4120206f1f7ea77808b48b928f2",
		SweepFull:  "30b4967dfe0275413e483f940ccf8e82a768f3f3771aa7e151cf986e14787b8e",
		SweepExact: "e9dc08f29da3b0a8e16cbdc53cf2dc6d0f58744a37158ba16f1b6b8759b43374",
	}
	for _, m := range Methods() {
		widths := []int{1}
		if m == SweepFull || m == SweepExact {
			widths = []int{1, 4} // exact methods are width-independent
		}
		for _, p := range widths {
			if got := goldenDigest(t, m, p); got != want[m] {
				t.Errorf("%v at parallelism %d: persisted digest %s, want %s", m, p, got, want[m])
			}
		}
	}
}
