package btree

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// refPairs flattens a reference count map into the strictly increasing
// (key, count) form BulkLoad takes.
func refPairs(ref map[int64]int64) (keys, counts []int64) {
	for k := range ref {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	counts = make([]int64, len(keys))
	for i, k := range keys {
		counts[i] = ref[k]
	}
	return keys, counts
}

// matchesRef reports whether the tree validates and agrees with the reference
// count map on the total, on every present key (one at a time and through the
// batched leaf-chain walk) and on the gaps next to them.
func matchesRef(tr *Tree, ref map[int64]int64) bool {
	if tr.Validate() != nil {
		return false
	}
	keys, counts := refPairs(ref)
	var total int64
	for i, k := range keys {
		total += counts[i]
		if tr.Count(k) != counts[i] || tr.Count(k-1) != ref[k-1] || tr.Count(k+1) != ref[k+1] {
			return false
		}
	}
	out := make([]int64, len(keys))
	tr.CountsSorted(keys, out)
	return tr.Len() == total && slices.Equal(out, counts)
}

func TestEmptyTree(t *testing.T) {
	tr, err := BulkLoadWithDegree(nil, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Errorf("empty tree: len=%d", tr.Len())
	}
	if tr.Count(5) != 0 {
		t.Error("Count on empty tree != 0")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBuildEmpty(t *testing.T) {
	tr := Build(nil)
	if tr.Len() != 0 {
		t.Errorf("Build(nil).Len() = %d", tr.Len())
	}
}

func TestAgainstReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ref := map[int64]int64{}
	for i := 0; i < 20000; i++ {
		ref[rng.Int63n(500)-250] += rng.Int63n(3) + 1
	}
	keys, counts := refPairs(ref)
	tr, err := BulkLoadWithDegree(keys, counts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !matchesRef(tr, ref) {
		t.Error("bulk-loaded tree disagrees with the reference map")
	}
	for _, k := range []int64{-1000, -251, 250, 1000} {
		if got := tr.Count(k); got != 0 {
			t.Errorf("Count(%d) = %d, want 0", k, got)
		}
	}
}

// Property: for any key multiset and any degree, the bulk-loaded tree
// validates and agrees with a reference map on counts and totals.
func TestTreeQuick(t *testing.T) {
	f := func(raw []int16, degSeed uint8) bool {
		ref := map[int64]int64{}
		for _, k := range raw {
			ref[int64(k)]++
		}
		keys, counts := refPairs(ref)
		tr, err := BulkLoadWithDegree(keys, counts, int(degSeed%14)+3)
		return err == nil && tr.Len() == int64(len(raw)) && matchesRef(tr, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
