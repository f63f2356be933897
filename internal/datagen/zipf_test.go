package datagen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZipfErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewZipf(nil, 10, 1, false); err == nil {
		t.Error("nil rng: want error")
	}
	if _, err := NewZipf(rng, 0, 1, false); err == nil {
		t.Error("zero domain: want error")
	}
	if _, err := NewZipf(rng, 10, -1, false); err == nil {
		t.Error("negative z: want error")
	}
	if _, err := NewZipf(rng, 10, math.NaN(), false); err == nil {
		t.Error("NaN z: want error")
	}
	if _, err := NewZipf(rng, 10, math.Inf(1), false); err == nil {
		t.Error("Inf z: want error")
	}
}

func TestZipfInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	zf, err := NewZipf(rng, 100, 1.0, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		v := zf.Next()
		if v < 1 || v > 100 {
			t.Fatalf("value %d out of [1,100]", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// With z = 1 and no shuffle, rank 1 maps to value 1 and should dominate:
	// P(1)/P(10) = 10. Check the empirical ratio is clearly skewed.
	rng := rand.New(rand.NewSource(3))
	vals, err := ZipfValues(rng, 200000, 100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	for _, v := range vals {
		counts[v]++
	}
	if counts[1] < 5*counts[10] {
		t.Errorf("expected strong skew: count(1)=%d count(10)=%d", counts[1], counts[10])
	}
	// Harmonic normalization: P(1) = 1/H_100 ~ 0.1928.
	p1 := float64(counts[1]) / float64(len(vals))
	if p1 < 0.17 || p1 > 0.22 {
		t.Errorf("P(value 1) = %.4f, want ~0.193", p1)
	}
}

func TestZipfZeroIsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vals, err := ZipfValues(rng, 100000, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	for _, v := range vals {
		counts[v]++
	}
	for v := int64(1); v <= 10; v++ {
		p := float64(counts[v]) / float64(len(vals))
		if p < 0.08 || p > 0.12 {
			t.Errorf("P(%d) = %.4f, want ~0.1", v, p)
		}
	}
}

func TestZipfDeterministic(t *testing.T) {
	a, err := ZipfValues(rand.New(rand.NewSource(9)), 1000, 50, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ZipfValues(rand.New(rand.NewSource(9)), 1000, 50, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestUniformValues(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals, err := UniformValues(rng, 10000, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if v < 1 || v > 7 {
			t.Fatalf("value %d out of [1,7]", v)
		}
	}
	if _, err := UniformValues(rng, 10, 0); err == nil {
		t.Error("zero domain: want error")
	}
}

func TestCorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := []int64{10, 20, 30}
	exact := Correlated(rng, base, 0)
	for i := range base {
		if exact[i] != base[i] {
			t.Errorf("noise=0 should copy: got %v", exact)
		}
	}
	noisy := Correlated(rng, base, 5)
	for i := range base {
		if d := noisy[i] - base[i]; d < -5 || d > 5 {
			t.Errorf("noise out of bounds at %d: %d", i, d)
		}
	}
}

func TestZipfSizes(t *testing.T) {
	sizes, err := ZipfSizes(1000000, 10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, s := range sizes {
		if s < 1 {
			t.Errorf("size[%d] = %d < 1", i, s)
		}
		total += s
	}
	if total != 1000000 {
		t.Errorf("total = %d, want 1000000", total)
	}
	// Largest first, roughly 1/i weights.
	if sizes[0] < 3*sizes[9] {
		t.Errorf("expected skewed sizes, got %v", sizes)
	}
	if _, err := ZipfSizes(5, 10, 1); err == nil {
		t.Error("total < n: want error")
	}
}

// Property: ZipfSizes always sums to total and keeps every entry positive.
func TestZipfSizesQuick(t *testing.T) {
	f := func(totalSeed, nSeed uint16, z8 uint8) bool {
		n := int(nSeed%20) + 1
		total := n + int(totalSeed)
		z := float64(z8%30) / 10.0
		sizes, err := ZipfSizes(total, n, z)
		if err != nil {
			return false
		}
		sum := 0
		for _, s := range sizes {
			if s < 1 {
				return false
			}
			sum += s
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGenerateTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spec := TableSpec{
		Name: "R",
		Rows: 500,
		Attrs: []AttrSpec{
			{Name: "x", Dist: Zipfian, Domain: 100, Z: 1},
			{Name: "a", Dist: CorrelatedWith, Base: "x", Noise: 3},
			{Name: "b", Dist: Uniform, Domain: 50},
		},
	}
	tab, err := GenerateTable(rng, spec)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 500 || tab.NumCols() != 3 {
		t.Fatalf("shape = %dx%d", tab.NumRows(), tab.NumCols())
	}
	x := tab.MustColumn("x")
	a := tab.MustColumn("a")
	for i := range x {
		if d := a[i] - x[i]; d < -3 || d > 3 {
			t.Fatalf("correlation noise out of bounds at %d", i)
		}
	}

	bad := TableSpec{Name: "R", Rows: 10, Attrs: []AttrSpec{
		{Name: "a", Dist: CorrelatedWith, Base: "missing"},
	}}
	if _, err := GenerateTable(rng, bad); err == nil {
		t.Error("correlate with missing base: want error")
	}
	if _, err := GenerateTable(rng, TableSpec{Name: "R", Rows: -1}); err == nil {
		t.Error("negative rows: want error")
	}
}

func TestChainDB(t *testing.T) {
	cfg := DefaultChainConfig()
	cfg.Rows = []int{2000, 1500, 1000, 500}
	cat, err := ChainDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if names := cat.Names(); len(names) != 4 {
		t.Fatalf("tables = %v, want 4", names)
	}
	t1 := cat.MustTable("T1")
	if t1.HasColumn("jprev") {
		t.Error("T1 should not have jprev")
	}
	if !t1.HasColumn("jnext") || !t1.HasColumn("a") {
		t.Error("T1 missing jnext/a")
	}
	t4 := cat.MustTable("T4")
	if t4.HasColumn("jnext") {
		t.Error("last table should not have jnext")
	}
	if !t4.HasColumn("jprev") {
		t.Error("T4 missing jprev")
	}
	// SIT attribute correlated with jprev on non-first tables.
	jp := t4.MustColumn("jprev")
	a := t4.MustColumn("a")
	for i := range jp {
		if d := a[i] - jp[i]; d < -int64(cfg.CorrNoise) || d > int64(cfg.CorrNoise) {
			t.Fatalf("T4.a not correlated with jprev at row %d", i)
		}
	}
	for _, name := range cat.Names() {
		if err := cat.MustTable(name).Validate(); err != nil {
			t.Error(err)
		}
	}

	cfg.Tables = 1
	cfg.Rows = []int{10}
	if _, err := ChainDB(cfg); err == nil {
		t.Error("1-table chain: want error")
	}
	cfg.Tables = 3
	if _, err := ChainDB(cfg); err == nil {
		t.Error("row-count mismatch: want error")
	}
}

func TestStarDB(t *testing.T) {
	cfg := DefaultStarConfig()
	cfg.FactRows = 500
	cfg.DimRows = []int{200, 150}
	cfg.SubDimRows = 50
	cat, err := StarDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Names()) != 4 { // F, D1, D2, E
		t.Fatalf("tables = %v", cat.Names())
	}
	f := cat.MustTable("F")
	if !f.HasColumn("k1") || !f.HasColumn("k2") || !f.HasColumn("a") {
		t.Errorf("F columns = %v", f.ColumnNames())
	}
	if f.NumRows() != 500 {
		t.Errorf("F rows = %d", f.NumRows())
	}
	d1 := cat.MustTable("D1")
	if !d1.HasColumn("e") {
		t.Error("snowflaked D1 missing e")
	}
	d2 := cat.MustTable("D2")
	if d2.HasColumn("e") {
		t.Error("D2 should not be snowflaked")
	}
	// a correlates with k1.
	k1 := f.MustColumn("k1")
	a := f.MustColumn("a")
	for i := range k1 {
		if d := a[i] - k1[i]; d < -int64(cfg.CorrNoise) || d > int64(cfg.CorrNoise) {
			t.Fatalf("a not correlated with k1 at row %d", i)
		}
	}
	for _, name := range cat.Names() {
		if err := cat.MustTable(name).Validate(); err != nil {
			t.Error(err)
		}
	}

	// No snowflake when SubDimRows = 0.
	cfg.SubDimRows = 0
	cat, err = StarDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Has("E") || cat.MustTable("D1").HasColumn("e") {
		t.Error("unexpected snowflake")
	}

	// Validation errors.
	if _, err := StarDB(StarConfig{}); err == nil {
		t.Error("empty config: want error")
	}
	bad := DefaultStarConfig()
	bad.DimDomains = bad.DimDomains[:1]
	if _, err := StarDB(bad); err == nil {
		t.Error("mismatched domains: want error")
	}
}
