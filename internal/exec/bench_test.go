package exec

import (
	"math/rand"
	"testing"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/query"
)

// benchJoinInputs builds a build side of nl rows and a probe side of nr rows
// with join keys uniform in [0, domain), so the expected join output is
// nl*nr/domain rows. The default benchmark sizing (100k x 100k over a 10k
// domain) yields a ~1M-row output.
func benchJoinInputs(nl, nr, domain int) (*data.Table, *data.Table) {
	rng := rand.New(rand.NewSource(1))
	r := data.MustNewTable("R", "x", "p")
	r.Grow(nl)
	for i := 0; i < nl; i++ {
		r.AppendRow(rng.Int63n(int64(domain)), int64(i))
	}
	s := data.MustNewTable("S", "y", "q")
	s.Grow(nr)
	for i := 0; i < nr; i++ {
		s.AppendRow(rng.Int63n(int64(domain)), int64(i))
	}
	return r, s
}

// BenchmarkHashJoin measures a single equi-join producing ~1M output rows.
func BenchmarkHashJoin(b *testing.B) {
	r, s := benchJoinInputs(100_000, 100_000, 10_000)
	cond := JoinCond{LeftCol: "R.x", RightCol: "S.y"}
	for i := 0; i < b.N; i++ {
		j, err := NewVecHashJoinSize(NewBatchScan(r), NewBatchScan(s), 0, cond)
		if err != nil {
			b.Fatal(err)
		}
		var rows int64
		for {
			batch, ok := j.NextBatch()
			if !ok {
				break
			}
			rows += int64(batch.NumRows())
		}
		b.ReportMetric(float64(rows), "outrows")
	}
}

// chainCatalog is a 3-table chain (T1 ⋈ T2 ⋈ T3) of the given size for
// end-to-end plan benchmarks and the budget matrix test.
func chainCatalog(rows int, domain int64) (*data.Catalog, *query.Expr) {
	rng := rand.New(rand.NewSource(2))
	cat := data.NewCatalog()
	t1 := data.MustNewTable("T1", "jnext")
	t1.Grow(rows)
	for i := 0; i < rows; i++ {
		t1.AppendRow(rng.Int63n(domain))
	}
	t2 := data.MustNewTable("T2", "jprev", "jnext")
	t2.Grow(rows)
	for i := 0; i < rows; i++ {
		t2.AppendRow(rng.Int63n(domain), rng.Int63n(domain))
	}
	t3 := data.MustNewTable("T3", "jprev", "a")
	t3.Grow(rows)
	for i := 0; i < rows; i++ {
		t3.AppendRow(rng.Int63n(domain), rng.Int63n(500))
	}
	cat.MustAdd(t1)
	cat.MustAdd(t2)
	cat.MustAdd(t3)
	e, err := query.Chain([]string{"T1", "T2", "T3"}, []string{"jnext", "jnext"}, []string{"jprev", "jprev"})
	if err != nil {
		panic(err)
	}
	return cat, e
}

func benchPlanCatalog() (*data.Catalog, *query.Expr) {
	return chainCatalog(20_000, 2_000)
}

// BenchmarkAttrValues measures the value-vector drain that feeds SIT
// creation (T3.a over the 3-way chain), unbudgeted and under a quarter of
// the largest table, where it also reports the spilled bytes: a projected
// plan spills only the columns its later joins read.
func BenchmarkAttrValues(b *testing.B) {
	cat, e := benchPlanCatalog()
	t2, err := cat.Table("T2")
	if err != nil {
		b.Fatal(err)
	}
	for _, reg := range spillRegimes(tableBytes(t2)) {
		b.Run(reg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gov := mem.NewGovernor(reg.budget)
				vals, err := AttrValuesOpts(cat, e, "T3", "a", Options{Gov: gov})
				if err != nil {
					b.Fatal(err)
				}
				if reg.budget > 0 {
					reportSpill(b, gov)
				}
				if err := gov.Close(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(vals)), "vals")
			}
		})
	}
}
