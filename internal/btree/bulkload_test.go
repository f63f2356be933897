package btree

import (
	"math/rand"
	"testing"
)

// bulkInputs generates n strictly-increasing keys (spanning negatives) with
// positive counts.
func bulkInputs(rng *rand.Rand, n int) (keys, counts []int64) {
	keys = make([]int64, n)
	counts = make([]int64, n)
	k := -int64(n) * 3
	for i := 0; i < n; i++ {
		k += 1 + rng.Int63n(5)
		keys[i] = k
		counts[i] = 1 + rng.Int63n(9)
	}
	return keys, counts
}

// TestBulkLoadMatchesIncremental: a bulk-loaded tree must validate (fan-out
// bounds, key order, uniform depth) and agree with the reference count map of
// its input — size, per-key counts one at a time and through CountsSorted,
// misses — across sizes that hit empty trees, a root-only leaf, trailing-leaf
// underflow, and multi-level inner underflow, at several degrees.
func TestBulkLoadMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sizes := []int{0, 1, 2, 3, 7, 8, 64, 65, 100, 513, 2000}
	for _, degree := range []int{3, 4, 5, 7, 64} {
		for _, n := range sizes {
			keys, counts := bulkInputs(rng, n)
			bulk, err := BulkLoadWithDegree(keys, counts, degree)
			if err != nil {
				t.Fatalf("degree %d n %d: %v", degree, n, err)
			}
			if err := bulk.Validate(); err != nil {
				t.Fatalf("degree %d n %d: bulk-loaded tree invalid: %v", degree, n, err)
			}
			ref := map[int64]int64{}
			for i, k := range keys {
				ref[k] = counts[i]
			}
			if !matchesRef(bulk, ref) {
				t.Fatalf("degree %d n %d: tree disagrees with the reference map", degree, n)
			}
			for trial := 0; trial < 20; trial++ {
				k := rng.Int63n(int64(4*n+8)) - int64(2*n+4)
				if got, want := bulk.Count(k), ref[k]; got != want {
					t.Fatalf("degree %d n %d: Count(%d) = %d, want %d", degree, n, k, got, want)
				}
			}
		}
	}
}

func TestBulkLoadErrors(t *testing.T) {
	if _, err := BulkLoad([]int64{1, 2}, []int64{1}); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := BulkLoad([]int64{2, 1}, []int64{1, 1}); err == nil {
		t.Error("descending keys: want error")
	}
	if _, err := BulkLoad([]int64{1, 1}, []int64{1, 1}); err == nil {
		t.Error("duplicate keys: want error")
	}
	if _, err := BulkLoad([]int64{1}, []int64{0}); err == nil {
		t.Error("zero count: want error")
	}
	if _, err := BulkLoad([]int64{1}, []int64{-3}); err == nil {
		t.Error("negative count: want error")
	}
	if _, err := BulkLoadWithDegree([]int64{1}, []int64{1}, 2); err == nil {
		t.Error("degree 2: want error")
	}
	tr, err := BulkLoad(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.Validate() != nil {
		t.Error("empty bulk load must yield a valid empty tree")
	}
}

// TestBuildUsesBulkLoad: Build tallies its values into the reference count
// map's multiset before routing through BulkLoad.
func TestBuildUsesBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, 5000)
	ref := map[int64]int64{}
	for i := range vals {
		vals[i] = rng.Int63n(700) - 350
		ref[vals[i]]++
	}
	built := Build(vals)
	if built.Len() != int64(len(vals)) || !matchesRef(built, ref) {
		t.Fatalf("Build disagrees with the reference map (len %d, want %d)", built.Len(), len(vals))
	}
	for v := int64(-360); v <= 360; v += 7 {
		if built.Count(v) != ref[v] {
			t.Fatalf("Count(%d) = %d, want %d", v, built.Count(v), ref[v])
		}
	}
}
