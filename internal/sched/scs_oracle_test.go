package sched

// The generic Shortest Common Supersequence solver of Section 4.1/4.2, kept
// as a test oracle: with unbounded memory the multi-SIT scheduling problem
// is weighted SCS (Section 4.3), so scs_consistency_test.go checks the
// scheduler's weighted A* against this independent implementation. Given a
// set of sequences, solveSCS finds a minimum-cost sequence containing each
// input as a subsequence. It is the A* formulation of Nicosia & Oriolo
// adapted in the paper: states are vectors of per-sequence positions, an
// edge labelled c advances every sequence whose next element is c, and the
// admissible heuristic is h(u) = sum_c cost(c) * o(u,c) where o(u,c) is the
// maximum number of occurrences of c in any remaining suffix. Symbol costs
// are weights (unit costs give classic SCS); a Dijkstra mode (heuristic off)
// cross-checks optimality.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// scsOptions tunes the solver.
type scsOptions struct {
	// Cost maps each symbol to its weight; symbols absent from a non-nil map
	// are an error. A nil map means unit costs (classic SCS).
	Cost map[string]float64
	// DisableHeuristic turns A* into Dijkstra (used to validate the
	// heuristic's admissibility in tests).
	DisableHeuristic bool
	// MaxExpansions aborts the search after expanding this many states
	// (0 = unlimited).
	MaxExpansions int
}

// scsStats reports search effort.
type scsStats struct {
	Expanded  int
	Generated int
}

// scsResult is a solved SCS instance.
type scsResult struct {
	// Sequence is an optimal common supersequence.
	Sequence []string
	// Cost is its total symbol cost (its length under unit costs).
	Cost  float64
	Stats scsStats
}

// solveSCS finds a minimum-cost common supersequence of seqs. Empty input (or
// all-empty sequences) yields an empty supersequence.
func solveSCS(seqs [][]string, opts scsOptions) (scsResult, error) {
	syms := map[string]bool{}
	for _, s := range seqs {
		for _, c := range s {
			if c == "" {
				return scsResult{}, fmt.Errorf("scs: empty symbol in input")
			}
			syms[c] = true
		}
	}
	// symList is sorted so every downstream walk — cost validation, the
	// floating-point heuristic sum, successor generation — is independent of
	// map iteration order; with equal-cost ties the A* result is then stable
	// run to run.
	symList := make([]string, 0, len(syms))
	for c := range syms {
		symList = append(symList, c)
	}
	sort.Strings(symList)
	cost := func(c string) float64 { return 1 }
	if opts.Cost != nil {
		for _, c := range symList {
			if w, ok := opts.Cost[c]; !ok {
				return scsResult{}, fmt.Errorf("scs: no cost for symbol %q", c)
			} else if w <= 0 {
				return scsResult{}, fmt.Errorf("scs: cost for symbol %q must be positive, got %v", c, w)
			}
		}
		cost = func(c string) float64 { return opts.Cost[c] }
	}

	// suffix counts: cnt[i][p][c] = occurrences of c in seqs[i][p:].
	cnt := make([]map[string][]int, len(seqs))
	for i, s := range seqs {
		cnt[i] = map[string][]int{}
		for _, c := range symList {
			counts := make([]int, len(s)+1)
			for p := len(s) - 1; p >= 0; p-- {
				counts[p] = counts[p+1]
				if s[p] == c {
					counts[p]++
				}
			}
			cnt[i][c] = counts
		}
	}
	h := func(pos []int) float64 {
		total := 0.0
		for _, c := range symList {
			o := 0
			for i := range seqs {
				if n := cnt[i][c][pos[i]]; n > o {
					o = n
				}
			}
			total += cost(c) * float64(o)
		}
		return total
	}
	if opts.DisableHeuristic {
		h = func([]int) float64 { return 0 }
	}

	start := make([]int, len(seqs))
	goal := func(pos []int) bool {
		for i, p := range pos {
			if p < len(seqs[i]) {
				return false
			}
		}
		return true
	}

	info := map[string]*scsNode{}
	startKey := scsKey(start)
	info[startKey] = &scsNode{}
	pq := &scsQueue{}
	heap.Push(pq, scsItem{key: startKey, pos: start, f: h(start)})
	stats := scsStats{Generated: 1}

	for pq.Len() > 0 {
		cur := heap.Pop(pq).(scsItem)
		ci := info[cur.key]
		if ci.closed {
			continue
		}
		ci.closed = true
		stats.Expanded++
		if opts.MaxExpansions > 0 && stats.Expanded > opts.MaxExpansions {
			return scsResult{}, fmt.Errorf("scs: expansion budget %d exhausted", opts.MaxExpansions)
		}
		if goal(cur.pos) {
			return scsResult{Sequence: scsPath(info, cur.key), Cost: ci.g, Stats: stats}, nil
		}
		// Successors: one per distinct next symbol, advancing every sequence
		// whose next element is that symbol (dominant in unconstrained SCS).
		// Symbols expand in sorted order so ties in f are broken identically
		// on every run.
		seen := map[string]bool{}
		var next []string
		for i, p := range cur.pos {
			if p < len(seqs[i]) {
				if c := seqs[i][p]; !seen[c] {
					seen[c] = true
					next = append(next, c)
				}
			}
		}
		sort.Strings(next)
		for _, c := range next {
			npos := make([]int, len(cur.pos))
			copy(npos, cur.pos)
			for i, p := range npos {
				if p < len(seqs[i]) && seqs[i][p] == c {
					npos[i] = p + 1
				}
			}
			nk := scsKey(npos)
			ng := ci.g + cost(c)
			ni, seen := info[nk]
			if seen && (ni.closed || ni.g <= ng) {
				continue
			}
			if !seen {
				ni = &scsNode{}
				info[nk] = ni
			}
			ni.g = ng
			ni.parent = cur.key
			ni.label = c
			heap.Push(pq, scsItem{key: nk, pos: npos, f: ng + h(npos)})
			stats.Generated++
		}
	}
	return scsResult{}, fmt.Errorf("scs: search exhausted without reaching the goal")
}

func scsPath(info map[string]*scsNode, key string) []string {
	var rev []string
	for {
		n := info[key]
		if n.label == "" {
			break
		}
		rev = append(rev, n.label)
		key = n.parent
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// scsNode is the per-state bookkeeping of the A* search.
type scsNode struct {
	g      float64
	parent string
	label  string
	closed bool
}

func scsKey(pos []int) string {
	var sb strings.Builder
	for i, p := range pos {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(p))
	}
	return sb.String()
}

// isSupersequence reports whether super contains sub as a subsequence.
func isSupersequence(super, sub []string) bool {
	j := 0
	for _, c := range super {
		if j < len(sub) && sub[j] == c {
			j++
		}
	}
	return j == len(sub)
}

type scsItem struct {
	key string
	pos []int
	f   float64
}

type scsQueue []scsItem

func (q scsQueue) Len() int            { return len(q) }
func (q scsQueue) Less(i, j int) bool  { return q[i].f < q[j].f }
func (q scsQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *scsQueue) Push(x interface{}) { *q = append(*q, x.(scsItem)) }
func (q *scsQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

func scsSeq(s string) []string {
	out := make([]string, len(s))
	for i, r := range s {
		out[i] = string(r)
	}
	return out
}

func TestSCSPaperExample4(t *testing.T) {
	// Example 4: SCS({abdc, bca}) has length 5 (abdca is one solution).
	res, err := solveSCS([][]string{scsSeq("abdc"), scsSeq("bca")}, scsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 5 || len(res.Sequence) != 5 {
		t.Errorf("cost = %v, seq = %v, want length 5", res.Cost, res.Sequence)
	}
	for _, in := range [][]string{scsSeq("abdc"), scsSeq("bca")} {
		if !isSupersequence(res.Sequence, in) {
			t.Errorf("%v is not a supersequence of %v", res.Sequence, in)
		}
	}
}

func TestSCSEmptyAndDegenerate(t *testing.T) {
	res, err := solveSCS(nil, scsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sequence) != 0 || res.Cost != 0 {
		t.Errorf("empty instance: %v", res)
	}
	res, err = solveSCS([][]string{{}, {}}, scsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sequence) != 0 {
		t.Errorf("all-empty sequences: %v", res.Sequence)
	}
	res, err = solveSCS([][]string{scsSeq("abc")}, scsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Sequence, scsSeq("abc")) {
		t.Errorf("single sequence should be its own SCS: %v", res.Sequence)
	}
	if _, err := solveSCS([][]string{{""}}, scsOptions{}); err == nil {
		t.Error("empty symbol: want error")
	}
}

func TestSCSIdenticalSequences(t *testing.T) {
	res, err := solveSCS([][]string{scsSeq("xyz"), scsSeq("xyz"), scsSeq("xyz")}, scsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 3 {
		t.Errorf("identical sequences: cost %v, want 3", res.Cost)
	}
}

func TestSCSDisjointSequences(t *testing.T) {
	res, err := solveSCS([][]string{scsSeq("ab"), scsSeq("cd")}, scsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 4 {
		t.Errorf("disjoint sequences: cost %v, want 4", res.Cost)
	}
}

func TestSCSWeighted(t *testing.T) {
	// Sequences {ab, ba}: SCSs of length 3 are aba and bab. With a costing
	// 10 and b costing 1, bab (cost 12) beats aba (cost 21).
	res, err := solveSCS([][]string{scsSeq("ab"), scsSeq("ba")}, scsOptions{
		Cost: map[string]float64{"a": 10, "b": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Sequence, scsSeq("bab")) {
		t.Errorf("weighted SCS = %v, want [b a b]", res.Sequence)
	}
	if res.Cost != 12 {
		t.Errorf("cost = %v, want 12", res.Cost)
	}
	if _, err := solveSCS([][]string{scsSeq("ab")}, scsOptions{Cost: map[string]float64{"a": 1}}); err == nil {
		t.Error("missing symbol cost: want error")
	}
	if _, err := solveSCS([][]string{scsSeq("a")}, scsOptions{Cost: map[string]float64{"a": -1}}); err == nil {
		t.Error("non-positive cost: want error")
	}
}

func TestSCSExpansionBudget(t *testing.T) {
	seqs := [][]string{scsSeq("abcabcabc"), scsSeq("cbacbacba"), scsSeq("bacbacbac")}
	if _, err := solveSCS(seqs, scsOptions{MaxExpansions: 2}); err == nil {
		t.Error("tiny expansion budget: want error")
	}
}

func TestSCSHeuristicMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	letters := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(3) + 2
		seqs := make([][]string, n)
		for i := range seqs {
			l := rng.Intn(5) + 1
			s := make([]string, l)
			for j := range s {
				s[j] = letters[rng.Intn(len(letters))]
			}
			seqs[i] = s
		}
		cost := map[string]float64{"a": 1, "b": 2, "c": 3, "d": 1.5}
		astar, err := solveSCS(seqs, scsOptions{Cost: cost})
		if err != nil {
			t.Fatal(err)
		}
		dij, err := solveSCS(seqs, scsOptions{Cost: cost, DisableHeuristic: true})
		if err != nil {
			t.Fatal(err)
		}
		if astar.Cost != dij.Cost {
			t.Fatalf("trial %d: A* cost %v != Dijkstra cost %v (seqs %v)", trial, astar.Cost, dij.Cost, seqs)
		}
		if astar.Stats.Expanded > dij.Stats.Expanded {
			t.Errorf("trial %d: heuristic expanded more states (%d) than Dijkstra (%d)",
				trial, astar.Stats.Expanded, dij.Stats.Expanded)
		}
	}
}

func TestSCSIsSupersequence(t *testing.T) {
	cases := []struct {
		super, sub string
		want       bool
	}{
		{"abdca", "abdc", true},
		{"abdca", "bca", true},
		{"abdca", "cab", false},
		{"", "", true},
		{"abc", "", true},
		{"", "a", false},
		{"aab", "ab", true},
	}
	for _, c := range cases {
		if got := isSupersequence(scsSeq(c.super), scsSeq(c.sub)); got != c.want {
			t.Errorf("isSupersequence(%q,%q) = %v, want %v", c.super, c.sub, got, c.want)
		}
	}
}

// Property: the solution is a common supersequence, its length is at least
// the longest input and at most the total input length, and unit cost equals
// length.
func TestSCSSolveQuick(t *testing.T) {
	letters := []string{"a", "b", "c"}
	f := func(raw [][]byte) bool {
		if len(raw) > 4 {
			raw = raw[:4]
		}
		var seqs [][]string
		total, longest := 0, 0
		for _, r := range raw {
			if len(r) > 6 {
				r = r[:6]
			}
			s := make([]string, len(r))
			for i, b := range r {
				s[i] = letters[int(b)%len(letters)]
			}
			seqs = append(seqs, s)
			total += len(s)
			if len(s) > longest {
				longest = len(s)
			}
		}
		res, err := solveSCS(seqs, scsOptions{})
		if err != nil {
			return false
		}
		if int(res.Cost) != len(res.Sequence) {
			return false
		}
		if len(res.Sequence) < longest || len(res.Sequence) > total {
			return false
		}
		for _, s := range seqs {
			if !isSupersequence(res.Sequence, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSCSSolveRunToRunStable: unit costs make every optimal supersequence of
// these inputs cost the same, so A* is all ties; sorted successor generation
// must pin the returned sequence. A regression here means symbol or successor
// enumeration fell back to map iteration order.
func TestSCSSolveRunToRunStable(t *testing.T) {
	seqs := [][]string{
		{"a", "b", "c", "d"},
		{"b", "c", "d", "a"},
		{"c", "d", "a", "b"},
		{"d", "a", "b", "c"},
	}
	first, err := solveSCS(seqs, scsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seqs {
		if !isSupersequence(first.Sequence, s) {
			t.Fatalf("result %v is not a supersequence of %v", first.Sequence, s)
		}
	}
	for i := 0; i < 20; i++ {
		again, err := solveSCS(seqs, scsOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if again.Cost != first.Cost {
			t.Fatalf("run %d: cost %v != %v", i, again.Cost, first.Cost)
		}
		if !reflect.DeepEqual(again.Sequence, first.Sequence) {
			t.Fatalf("run %d: sequence changed across runs:\n first: %v\n again: %v",
				i, first.Sequence, again.Sequence)
		}
	}
}

// TestSCSSolveDeterministicCostError: with several symbols missing from the
// cost map, the reported symbol must not depend on map iteration order (the
// symbol list is validated in sorted order).
func TestSCSSolveDeterministicCostError(t *testing.T) {
	seqs := [][]string{{"z", "y", "x"}, {"x", "z"}}
	for i := 0; i < 10; i++ {
		_, err := solveSCS(seqs, scsOptions{Cost: map[string]float64{"z": 1}})
		if err == nil {
			t.Fatal("want error for missing costs")
		}
		want := `scs: no cost for symbol "x"`
		if err.Error() != want {
			t.Fatalf("run %d: got %q, want %q", i, err, want)
		}
	}
}
