package radix

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

type pair struct {
	k int64
	p int32
}

// checkAgainstStable sorts keys (payload = original position) with the kernel
// and with slices.SortStableFunc and requires identical key and payload
// sequences — the payload column is what makes instability visible.
func checkAgainstStable(t *testing.T, keys []int64) {
	t.Helper()
	n := len(keys)
	want := make([]pair, n)
	pay := make([]int32, n)
	for i, k := range keys {
		want[i] = pair{k, int32(i)}
		pay[i] = int32(i)
	}
	slices.SortStableFunc(want, func(a, b pair) int {
		switch {
		case a.k < b.k:
			return -1
		case a.k > b.k:
			return 1
		}
		return 0
	})
	in := slices.Clone(keys)
	gotK, gotP := Sort(in, make([]int64, n), pay, make([]int32, n))
	if len(gotK) != n || len(gotP) != n {
		t.Fatalf("Sort returned %d keys and %d payloads for %d inputs", len(gotK), len(gotP), n)
	}
	for i := range want {
		if gotK[i] != want[i].k || gotP[i] != want[i].p {
			t.Fatalf("position %d: got (%d, %d), stable sort has (%d, %d)", i, gotK[i], gotP[i], want[i].k, want[i].p)
		}
	}
	if sc := SortedCopy(keys); !slices.Equal(sc, gotK) {
		t.Fatalf("SortedCopy disagrees with Sort")
	}
}

func TestSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := map[string][]int64{
		"empty":     {},
		"single":    {42},
		"extremes":  {math.MaxInt64, math.MinInt64, 0, -1, 1, math.MinInt64, math.MaxInt64, -1},
		"all-equal": make([]int64, 300),
		"sorted":    {-3, -2, -1, 0, 1, 2, 3},
		"reversed":  {3, 2, 1, 0, -1, -2, -3},
	}
	narrow := make([]int64, 5000)
	for i := range narrow {
		narrow[i] = rng.Int63n(300) - 150 // span < 2^16: two biased bytes vary
	}
	cases["narrow"] = narrow
	wide := make([]int64, 5000)
	for i := range wide {
		wide[i] = int64(rng.Uint64()) // all eight bytes vary
	}
	cases["wide"] = wide
	for name, keys := range cases {
		t.Run(name, func(t *testing.T) { checkAgainstStable(t, keys) })
	}
}

// TestSortPassesFollowKeyRange pins the pass count through where the result
// lands: in keys after an even number of scatter passes, in tmpK after an odd
// number. Passes follow max - min, so the sign of the keys costs none.
func TestSortPassesFollowKeyRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	uniform := func(n int, lo, hi, step int64) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = lo + step*rng.Int63n((hi-lo)/step+1)
		}
		keys[0], keys[1] = lo, hi // pin the span
		return keys
	}
	for _, tc := range []struct {
		name   string
		keys   []int64
		passes int
	}{
		{"mixed sign, span 200", uniform(1000, -100, 100, 1), 1},
		{"across a byte boundary, span 200", uniform(1000, 250, 450, 1), 1},
		{"mixed sign, span 60000", uniform(1000, -5000, 55000, 1), 2},
		{"constant low byte skipped", uniform(1000, -256*100, 256*100, 256), 1},
		{"full span", []int64{math.MinInt64, math.MaxInt64, 0, -1}, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstStable(t, tc.keys)
			n := len(tc.keys)
			keys, tmpK := slices.Clone(tc.keys), make([]int64, n)
			pay, tmpP := make([]int32, n), make([]int32, n)
			gotK, gotP := Sort(keys, tmpK, pay, tmpP)
			wantK, wantP := keys, pay
			if tc.passes%2 == 1 {
				wantK, wantP = tmpK, tmpP
			}
			if &gotK[0] != &wantK[0] || &gotP[0] != &wantP[0] {
				t.Fatalf("result not in the buffers of a %d-pass sort", tc.passes)
			}
		})
	}
}

// TestSortedCopyLeavesInputUntouched: SortedCopy must not reorder its input
// nor return it, even when no byte varies and no pass runs.
func TestSortedCopyLeavesInputUntouched(t *testing.T) {
	for _, in := range [][]int64{{5, -9, 5, 0, math.MinInt64, 3}, {7, 7, 7}, {-2}} {
		orig := slices.Clone(in)
		out := SortedCopy(in)
		if !slices.Equal(in, orig) {
			t.Fatalf("input reordered: %v", in)
		}
		if !slices.IsSorted(out) || len(out) != len(in) {
			t.Fatalf("bad sorted copy %v", out)
		}
		if &out[0] == &in[0] {
			t.Fatalf("SortedCopy(%v) returned its input", orig)
		}
	}
}

// FuzzRadixPairs feeds arbitrary byte strings as int64 keys (8 bytes each;
// the first byte picks how many low bytes survive, sign-extended, so the
// fuzzer reaches narrow key ranges, where the kernel stops at the top byte of
// max - min and skips bytes constant across the biased keys uint64(k) - min)
// and compares against slices.SortStableFunc.
func FuzzRadixPairs(f *testing.F) {
	f.Add([]byte{8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{1, 0xff, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0})
	// Full span: MinInt64 and MaxInt64, so max - min is 2^64 - 1.
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0})
	// Narrow mixed sign: -3, 5, -1 and 2 in two-byte keys.
	f.Add([]byte{1, 0xfd, 0xff, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0})
	// All negative, three kept bytes: -0x010000, -0x7f0000, -1.
	f.Add([]byte{2, 0, 0, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x81, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		checkAgainstStable(t, fuzzKeys(raw))
	})
}

// fuzzKeys decodes a fuzz input into int64 keys: the first byte picks how
// many low bytes of each following 8-byte word survive, sign-extended.
func fuzzKeys(raw []byte) []int64 {
	keep := uint(raw[0]%8) + 1
	raw = raw[1:]
	keys := make([]int64, 0, len(raw)/8)
	for ; len(raw) >= 8; raw = raw[8:] {
		u := binary.LittleEndian.Uint64(raw)
		// Sign-extend from the kept width so negatives stay in play.
		shift := 64 - 8*keep
		keys = append(keys, int64(u<<shift)>>shift)
	}
	return keys
}

var sink []int64

// BenchmarkSort sorts uniform keys in [lo, hi). The signed cases are shaped
// like the bench workloads' SIT attribute a (jprev ± domain/10), which spans
// [-d/10, 1.1·d) for a join domain d.
func BenchmarkSort(b *testing.B) {
	for _, bc := range []struct {
		name   string
		n      int
		lo, hi int64
	}{
		{"chunk4096/domain60k", 4096, 0, 60000},
		{"chunk4096/signed60k", 4096, -6000, 66000},
		{"batch64k/domain60k", 64 << 10, 0, 60000},
		{"column600k/domain60k", 600000, 0, 60000},
		{"column600k/signed60k", 600000, -6000, 66000},
		{"column600k/domain300k", 600000, 0, 300000},
	} {
		rng := rand.New(rand.NewSource(1))
		src := make([]int64, bc.n)
		for i := range src {
			src[i] = bc.lo + rng.Int63n(bc.hi-bc.lo)
		}
		b.Run(bc.name+"/perm", func(b *testing.B) {
			keys, tmpK := make([]int64, bc.n), make([]int64, bc.n)
			pay, tmpP := make([]int32, bc.n), make([]int32, bc.n)
			b.SetBytes(int64(bc.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(keys, src)
				sink, _ = Sort(keys, tmpK, pay, tmpP)
			}
		})
		b.Run(bc.name+"/weight", func(b *testing.B) {
			keys, tmpK := make([]int64, bc.n), make([]int64, bc.n)
			pay, tmpP := make([]float64, bc.n), make([]float64, bc.n)
			b.SetBytes(int64(bc.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(keys, src)
				sink, _ = Sort(keys, tmpK, pay, tmpP)
			}
		})
		b.Run(bc.name+"/keys", func(b *testing.B) {
			b.SetBytes(int64(bc.n))
			for i := 0; i < b.N; i++ {
				sink = SortedCopy(src)
			}
		})
	}
}
