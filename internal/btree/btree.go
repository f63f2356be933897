// Package btree implements a B+tree over int64 keys with per-key occurrence
// counts. It is the index substrate behind SweepIndex (Section 3.1.2): "if an
// index over attribute R.x is available, we can issue repeated index lookups
// to find exact multiplicity values". Count(key) is exactly that lookup.
//
// Duplicates are stored as counts rather than repeated entries, which is all
// the multiplicity oracle needs and keeps the tree compact under the skewed
// distributions used in the evaluation. A tree is bulk-loaded once (Build,
// BulkLoad) and immutable afterwards.
package btree

import (
	"fmt"
	"sort"

	"github.com/sitstats/sits/internal/radix"
)

// DefaultDegree is the default maximum number of keys per node.
const DefaultDegree = 64

// Tree is a B+tree multiset of int64 keys.
type Tree struct {
	degree int
	root   node
	size   int64 // total loaded keys, counting duplicates
}

type node interface {
	count(key int64) int64
	depth() int
	validate(degree int, isRoot bool, lo, hi *int64) error
}

type leaf struct {
	keys   []int64
	counts []int64
	next   *leaf
}

type inner struct {
	// children[i] covers keys < keys[i]; children[len(keys)] covers the rest.
	keys     []int64
	children []node
}

// Build constructs a tree from a value slice: the radix counting kernel
// tallies it into ascending (key, count) runs, which bulk-load the tree
// bottom-up.
func Build(vals []int64) *Tree {
	r := radix.Count(vals)
	keys, counts := make([]int64, 0, r.Len()), make([]int64, 0, r.Len())
	for ks, cs := r.Next(); len(ks) > 0; ks, cs = r.Next() {
		keys, counts = append(keys, ks...), append(counts, cs...)
	}
	loaded, err := BulkLoad(keys, counts)
	if err != nil {
		panic(err) // unreachable: keys are strictly increasing with positive counts
	}
	return loaded
}

// BulkLoad builds a tree bottom-up from pre-sorted (key, count) pairs: keys
// must be strictly increasing and counts positive. It runs in O(n) after
// sorting, packing leaves left to right and stitching inner levels over them —
// the standard bottom-up B+tree load used for index creation after an
// external sort.
func BulkLoad(keys, counts []int64) (*Tree, error) {
	return BulkLoadWithDegree(keys, counts, DefaultDegree)
}

// BulkLoadWithDegree is BulkLoad with an explicit node capacity.
func BulkLoadWithDegree(keys, counts []int64, degree int) (*Tree, error) {
	if degree < 3 {
		return nil, fmt.Errorf("btree: degree %d must be >= 3", degree)
	}
	if len(keys) != len(counts) {
		return nil, fmt.Errorf("btree: bulk load got %d keys but %d counts", len(keys), len(counts))
	}
	t := &Tree{degree: degree, root: &leaf{}}
	if len(keys) == 0 {
		return t, nil
	}
	var size int64
	for i := range keys {
		if i > 0 && keys[i-1] >= keys[i] {
			return nil, fmt.Errorf("btree: bulk load keys not strictly increasing at %d (%d >= %d)", i, keys[i-1], keys[i])
		}
		if counts[i] <= 0 {
			return nil, fmt.Errorf("btree: bulk load count %d for key %d must be positive", counts[i], keys[i])
		}
		size += counts[i]
	}

	// Pack leaves with `degree` keys each; a trailing underfull leaf borrows
	// from its (full) left sibling so every non-root leaf holds >= degree/2.
	var leaves []*leaf
	for start := 0; start < len(keys); start += degree {
		end := start + degree
		if end > len(keys) {
			end = len(keys)
		}
		leaves = append(leaves, &leaf{
			keys:   append([]int64(nil), keys[start:end]...),
			counts: append([]int64(nil), counts[start:end]...),
		})
	}
	if n := len(leaves); n > 1 && len(leaves[n-1].keys) < degree/2 {
		prev, last := leaves[n-2], leaves[n-1]
		move := degree/2 - len(last.keys)
		cut := len(prev.keys) - move
		last.keys = append(append([]int64(nil), prev.keys[cut:]...), last.keys...)
		last.counts = append(append([]int64(nil), prev.counts[cut:]...), last.counts...)
		prev.keys = prev.keys[:cut:cut]
		prev.counts = prev.counts[:cut:cut]
	}
	for i := 0; i < len(leaves)-1; i++ {
		leaves[i].next = leaves[i+1]
	}

	// Stitch inner levels bottom-up. mins[i] is the smallest key in the
	// subtree of level[i]; the separator left of a child is exactly that
	// subtree minimum, preserving the "children[i] covers keys < keys[i]"
	// invariant.
	level := make([]node, len(leaves))
	mins := make([]int64, len(leaves))
	for i, l := range leaves {
		level[i] = l
		mins[i] = l.keys[0]
	}
	maxChildren := degree + 1
	minChildren := degree/2 + 1
	for len(level) > 1 {
		var nextLevel []node
		var nextMins []int64
		for start := 0; start < len(level); start += maxChildren {
			end := start + maxChildren
			if end > len(level) {
				end = len(level)
			}
			nextLevel = append(nextLevel, &inner{
				keys:     append([]int64(nil), mins[start+1:end]...),
				children: append([]node(nil), level[start:end]...),
			})
			nextMins = append(nextMins, mins[start])
		}
		if n := len(nextLevel); n > 1 {
			last := nextLevel[n-1].(*inner)
			if len(last.children) < minChildren {
				prev := nextLevel[n-2].(*inner)
				move := minChildren - len(last.children)
				cut := len(prev.children) - move
				// The separators of the moved children are the subtree minima
				// of all but the first moved child, plus the old minimum of
				// the last node (now an internal separator).
				sepCut := len(prev.keys) - move + 1
				last.keys = append(append([]int64(nil), prev.keys[sepCut:]...), append([]int64{nextMins[n-1]}, last.keys...)...)
				last.children = append(append([]node(nil), prev.children[cut:]...), last.children...)
				nextMins[n-1] = prev.keys[sepCut-1]
				prev.keys = prev.keys[: sepCut-1 : sepCut-1]
				prev.children = prev.children[:cut:cut]
			}
		}
		level, mins = nextLevel, nextMins
	}
	t.root = level[0]
	t.size = size
	return t, nil
}

// Count returns the number of occurrences of key — the exact multiplicity
// lookup SweepIndex issues per scanned tuple.
func (t *Tree) Count(key int64) int64 { return t.root.count(key) }

// leafFor returns the leaf whose key space covers key.
func (t *Tree) leafFor(key int64) *leaf {
	switch r := t.root.(type) {
	case *inner:
		return r.leafFor(key)
	case *leaf:
		return r
	}
	return nil
}

// CountsSorted fills out[i] = Count(keys[i]) for an ascending keys slice —
// the batched form of SweepIndex's multiplicity lookup. A leaf cursor follows
// the probes along the linked leaf chain: consecutive keys landing in the
// same or the next leaf cost a binary search within that leaf instead of a
// root-to-leaf descent, and the tree is only re-descended when a probe jumps
// past the next leaf. Duplicate keys reuse the preceding answer.
func (t *Tree) CountsSorted(keys []int64, out []int64) {
	if len(keys) == 0 {
		return
	}
	cur := t.leafFor(keys[0])
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			out[i] = out[i-1]
			continue
		}
		for cur != nil && (len(cur.keys) == 0 || k > cur.keys[len(cur.keys)-1]) {
			nxt := cur.next
			if nxt == nil {
				cur = nil
				break
			}
			if len(nxt.keys) > 0 && k > nxt.keys[len(nxt.keys)-1] {
				// Probe jumps past the neighbouring leaf: descend once.
				cur = t.leafFor(k)
				break
			}
			cur = nxt
		}
		if cur == nil {
			out[i] = 0
			continue
		}
		j := sort.Search(len(cur.keys), func(j int) bool { return cur.keys[j] >= k })
		if j < len(cur.keys) && cur.keys[j] == k {
			out[i] = cur.counts[j]
		} else {
			out[i] = 0
		}
	}
}

// Len returns the total number of loaded occurrences.
func (t *Tree) Len() int64 { return t.size }

// Validate checks the B+tree structural invariants: sorted keys, fanout
// bounds, separator correctness, uniform depth, and positive counts.
func (t *Tree) Validate() error {
	return t.root.validate(t.degree, true, nil, nil)
}

// --- leaf ---

func (l *leaf) count(key int64) int64 {
	i := sort.Search(len(l.keys), func(i int) bool { return l.keys[i] >= key })
	if i < len(l.keys) && l.keys[i] == key {
		return l.counts[i]
	}
	return 0
}

func (l *leaf) depth() int { return 1 }

func (l *leaf) validate(degree int, isRoot bool, lo, hi *int64) error {
	if !isRoot && len(l.keys) < degree/2 {
		return fmt.Errorf("btree: leaf underflow: %d keys, want >= %d", len(l.keys), degree/2)
	}
	if len(l.keys) > degree {
		return fmt.Errorf("btree: leaf overflow: %d keys, max %d", len(l.keys), degree)
	}
	if len(l.keys) != len(l.counts) {
		return fmt.Errorf("btree: leaf keys/counts length mismatch")
	}
	for i, k := range l.keys {
		if i > 0 && l.keys[i-1] >= k {
			return fmt.Errorf("btree: leaf keys not strictly sorted at %d", i)
		}
		if l.counts[i] <= 0 {
			return fmt.Errorf("btree: non-positive count for key %d", k)
		}
		if lo != nil && k < *lo {
			return fmt.Errorf("btree: key %d below separator bound %d", k, *lo)
		}
		if hi != nil && k >= *hi {
			return fmt.Errorf("btree: key %d not below separator bound %d", k, *hi)
		}
	}
	return nil
}

// --- inner ---

func (in *inner) childFor(key int64) int {
	return sort.Search(len(in.keys), func(i int) bool { return in.keys[i] > key })
}

func (in *inner) count(key int64) int64 {
	return in.children[in.childFor(key)].count(key)
}

func (in *inner) leafFor(key int64) *leaf {
	n := node(in)
	for {
		switch v := n.(type) {
		case *inner:
			n = v.children[v.childFor(key)]
		case *leaf:
			return v
		}
	}
}

func (in *inner) depth() int { return 1 + in.children[0].depth() }

func (in *inner) validate(degree int, isRoot bool, lo, hi *int64) error {
	if len(in.children) != len(in.keys)+1 {
		return fmt.Errorf("btree: inner fanout mismatch: %d keys, %d children", len(in.keys), len(in.children))
	}
	minKeys := degree / 2
	if isRoot {
		minKeys = 1
	}
	if len(in.keys) < minKeys {
		return fmt.Errorf("btree: inner underflow: %d keys, want >= %d", len(in.keys), minKeys)
	}
	if len(in.keys) > degree {
		return fmt.Errorf("btree: inner overflow: %d keys, max %d", len(in.keys), degree)
	}
	d := in.children[0].depth()
	for i, k := range in.keys {
		if i > 0 && in.keys[i-1] >= k {
			return fmt.Errorf("btree: inner keys not strictly sorted at %d", i)
		}
		if lo != nil && k < *lo {
			return fmt.Errorf("btree: separator %d below bound %d", k, *lo)
		}
		if hi != nil && k >= *hi {
			return fmt.Errorf("btree: separator %d not below bound %d", k, *hi)
		}
	}
	for i, c := range in.children {
		if c.depth() != d {
			return fmt.Errorf("btree: ragged depth under inner node")
		}
		var cLo, cHi *int64
		if i > 0 {
			cLo = &in.keys[i-1]
		} else {
			cLo = lo
		}
		if i < len(in.keys) {
			cHi = &in.keys[i]
		} else {
			cHi = hi
		}
		if err := c.validate(degree, false, cLo, cHi); err != nil {
			return err
		}
	}
	return nil
}
