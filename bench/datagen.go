package main

import (
	"math"
	"math/rand"
	"sort"

	"github.com/sitstats/sits"
)

// genColumns generates n rows of chain table i (0-based) for the workload, in
// columns() order. Everything is a pure function of rng's state.
//
// Zipfian join attributes are stratified rather than sampled: value counts
// follow the Zipf(z) quantiles exactly, the rank->value permutation is fixed,
// and only the row order is random. The join mass and the m-Oracle's estimate
// of it — which decide how much reservoir work a Sweep build does — are then
// the same for every seed, so differences in create_s between seeds measure
// the code, not the draw.
func (w workload) genColumns(rng *rand.Rand, i, n int, perm []int64) [][]int64 {
	var cols [][]int64
	var jprev []int64
	if i > 0 {
		jprev = w.joinColumn(rng, n, perm)
		cols = append(cols, jprev)
	}
	if i < numTables-1 {
		cols = append(cols, w.joinColumn(rng, n, perm))
	}
	a := make([]int64, n)
	if jprev != nil {
		noise := int64(w.corrNoise())
		for r, v := range jprev {
			a[r] = v + rng.Int63n(2*noise+1) - noise
		}
	} else {
		fillUniform(rng, a, w.domain)
	}
	b := make([]int64, n)
	fillUniform(rng, b, w.payloadDomain())
	c := make([]int64, n)
	fillUniform(rng, c, narrowDomain)
	return append(cols, a, b, c)
}

func fillUniform(rng *rand.Rand, dst []int64, domain int) {
	for r := range dst {
		dst[r] = rng.Int63n(int64(domain)) + 1
	}
}

// joinColumn draws one join attribute: uniform over [1, domain], or
// stratified Zipf(joinZ) mapped through perm and shuffled.
func (w workload) joinColumn(rng *rand.Rand, n int, perm []int64) []int64 {
	out := make([]int64, n)
	if w.joinZ == 0 {
		fillUniform(rng, out, w.domain)
		return out
	}
	cdf := zipfCDF(w.domain, w.joinZ)
	for r := range out {
		u := (float64(r) + 0.5) / float64(n)
		rank := sort.SearchFloat64s(cdf, u)
		if rank >= len(perm) {
			rank = len(perm) - 1
		}
		out[r] = perm[rank]
	}
	rng.Shuffle(n, func(x, y int) { out[x], out[y] = out[y], out[x] })
	return out
}

// zipfCDF returns cdf[i] = P(rank <= i) for Zipf(z) over n ranks.
func zipfCDF(n int, z float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), z)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

const permSeed = 20030305

// database is one generated input: the four tables plus, for the refresh
// workload, the pool of rows its append cycles draw from.
type database struct {
	tables [numTables]*sits.Table
	// pool[i] holds table i's future rows, column-major: the rows every
	// refresh cycle appends to a fresh copy of the table.
	pool [numTables][][]int64
}

// poolRows is how many future rows of table i a refresh cycle appends.
func (w workload) poolRows(i int) int {
	if !w.refresh {
		return 0
	}
	return int(w.refreshGrow * float64(w.rows[i]))
}

// generate builds the workload's database from the seed.
func (w workload) generate(seed int64) (*database, error) {
	rng := rand.New(rand.NewSource(seed))
	// One rank->value permutation shared by every join attribute and every
	// seed: heavy values coincide across tables but are scattered over the
	// domain instead of clustered at its low end.
	perm := make([]int64, w.domain)
	for i := range perm {
		perm[i] = int64(i + 1)
	}
	rand.New(rand.NewSource(permSeed)).Shuffle(len(perm), func(x, y int) { perm[x], perm[y] = perm[y], perm[x] })
	db := &database{}
	for i := 0; i < numTables; i++ {
		t, err := sits.NewTable(tableName(i), columns(i)...)
		if err != nil {
			return nil, err
		}
		if err := t.AppendColumns(w.genColumns(rng, i, w.rows[i], perm)...); err != nil {
			return nil, err
		}
		db.tables[i] = t
		if n := w.poolRows(i); n > 0 {
			db.pool[i] = w.genColumns(rng, i, n, perm)
		}
	}
	return db, nil
}
