// Package radix is the one kernel the SIT creation path orders and counts
// int64 keys with. Sort is a stable LSD radix sort in signed order that
// carries a payload column through as many scatter passes as the key range
// needs. Count tallies values into ascending (value, count) runs: when Dense
// allows the span, it adds each value onto a table indexed by v - min with no
// sort, and otherwise it sorts a copy and counts runs. Exact aggregation,
// Tally, the batched m-Oracle probes and B+tree bulk loads all go through it.
package radix

// Sort stably sorts keys ascending in signed order and moves pay[i] with
// keys[i]. tmpK and tmpP are ping-pong buffers at least as long as keys; pay
// must be as long as keys. A pre-scan finds min and max; keys then sort as
// uint64(k) - uint64(min), whose unsigned order is their signed order. Only
// bytes below the top byte of max - min get a pass, and a byte constant
// across those biased keys is not scattered.
//
// The result lands in the inputs after an even number of scatter passes and
// in the ping-pong buffers after an odd number; Sort returns whichever pair
// holds it, and the other pair is clobbered.
//
//statcheck:hot
func Sort[P any](keys, tmpK []int64, pay, tmpP []P) ([]int64, []P) {
	if len(keys) < 2 {
		return keys, pay
	}
	lo, hi := Bounds(keys)
	return sortRange(keys, tmpK, pay, tmpP, lo, hi)
}

// sortRange is Sort over keys already known to lie in [lo, hi].
//
//statcheck:hot
func sortRange[P any](keys, tmpK []int64, pay, tmpP []P, lo, hi int64) ([]int64, []P) {
	base, span := uint64(lo), uint64(hi)-uint64(lo)
	srcK, dstK, srcP, dstP := keys, tmpK[:len(keys)], pay[:len(keys)], tmpP[:len(keys)]
	for shift := uint(0); shift < 64 && span>>shift != 0; shift += 8 {
		if pass(srcK, dstK, srcP, dstP, base, shift) {
			srcK, dstK, srcP, dstP = dstK, srcK, dstP, srcP
		}
	}
	return srcK, srcP
}

// pass scatters src into dst by the byte at shift of uint64(k) - base, or
// reports false when that byte is constant (its own function, so the loop
// indices stay in registers).
//
//statcheck:hot
func pass[P any](srcK, dstK []int64, srcP, dstP []P, base uint64, shift uint) bool {
	shift &= 63 // tells the compiler shift < 64, so the loops skip over-shift fixups
	var offs [256]int
	for _, k := range srcK {
		offs[byte((uint64(k)-base)>>shift)]++
	}
	if offs[byte((uint64(srcK[0])-base)>>shift)] == len(srcK) {
		return false
	}
	sum := 0
	for i := range offs {
		sum, offs[i] = sum+offs[i], sum
	}
	srcP = srcP[:len(srcK)]
	for i, k := range srcK {
		d := byte((uint64(k) - base) >> shift)
		o := offs[d]
		offs[d] = o + 1
		dstK[o] = k
		dstP[o] = srcP[i]
	}
	return true
}

// Bounds returns the least and the greatest of keys, which must not be empty.
//
//statcheck:hot
func Bounds(keys []int64) (lo, hi int64) {
	lo, hi = keys[0], keys[0]
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	return lo, hi
}

// Dense is the one guard between the counting kernel's two regimes: it
// reports whether a direct-address table of at most slots entries covers
// every value in [lo, hi] (lo <= hi). The span hi - lo + 1 is never formed:
// for {MinInt64, MaxInt64} it is 2^64, which wraps to 0 in uint64.
func Dense(lo, hi int64, slots int) bool {
	return slots > 0 && uint64(hi)-uint64(lo) < uint64(slots)
}

// SortedCopy returns vals sorted ascending, leaving vals untouched.
func SortedCopy(vals []int64) []int64 {
	n := len(vals)
	buf := make([]int64, 2*n)
	copy(buf, vals)
	// A zero-size payload: the kernel's payload moves compile to nothing.
	sorted, _ := Sort(buf[:n], buf[n:], make([]struct{}, n), make([]struct{}, n))
	return sorted
}

// Runs is a tally of int64 values: Len distinct values, read in ascending
// order a block at a time with Next.
type Runs struct {
	// Sorted regime: keys[i] occurs counts[i] times, one block.
	keys, counts []int64
	// Dense regime: table[i] counts lo + i; Next compacts the next runs into
	// keys and counts, which it reuses for every block.
	lo    int64
	table []int64
	n, i  int
}

// denseBlock is the most runs one Next returns in the dense regime.
const denseBlock = 512

// Count tallies vals, leaving them untouched. When their span fits 2·len(vals)
// slots — no more bytes than the sorted copy's 2n-key buffer — each value is
// added onto a table indexed by v - min, with no sort; wider spans sort a
// copy and compact its runs into the copy's own buffer. The counts are
// integers, so both regimes give the same runs.
func Count(vals []int64) Runs {
	if len(vals) == 0 {
		return Runs{}
	}
	lo, hi := Bounds(vals)
	if Dense(lo, hi, 2*len(vals)) {
		return countDense(vals, lo, hi)
	}
	return countSorted(vals, lo, hi)
}

// countDense is Count's dense regime over non-empty vals in [lo, hi].
func countDense(vals []int64, lo, hi int64) Runs {
	table := make([]int64, uint64(hi)-uint64(lo)+1)
	tally(table, vals, lo)
	k := min(denseBlock, len(table))
	return Runs{lo: lo, table: table, n: occupied(table), keys: make([]int64, 0, k), counts: make([]int64, 0, k)}
}

// countSorted is Count's sorted regime over non-empty vals in [lo, hi]: it
// sorts a copy as SortedCopy does, then the runs' keys overwrite the sorted
// half of the buffer and their counts the other half.
func countSorted(vals []int64, lo, hi int64) Runs {
	n := len(vals)
	buf := make([]int64, 2*n)
	copy(buf, vals)
	sorted, _ := sortRange(buf[:n], buf[n:], make([]struct{}, n), make([]struct{}, n), lo, hi)
	other := buf[:n]
	if &sorted[0] == &other[0] {
		other = buf[n:]
	}
	d := compact(sorted, sorted, other)
	return Runs{keys: sorted[:d], counts: other[:d], n: d}
}

// compact writes the runs of sorted into keys and counts and returns how many
// there are. keys may be sorted itself: no run's key is written ahead of
// where it is read.
//
//statcheck:hot
func compact(sorted, keys, counts []int64) int {
	d := 0
	for i := 0; i < len(sorted); {
		v, j := sorted[i], i+1
		for j < len(sorted) && sorted[j] == v {
			j++
		}
		keys[d], counts[d] = v, int64(j-i)
		d++
		i = j
	}
	return d
}

// tally adds one onto table[v - lo] for every value.
//
//statcheck:hot
func tally(table, vals []int64, lo int64) {
	for _, v := range vals {
		table[uint64(v)-uint64(lo)]++
	}
}

// occupied counts the non-zero slots of a dense table.
//
//statcheck:hot
func occupied(table []int64) int {
	n := 0
	for _, c := range table {
		if c != 0 {
			n++
		}
	}
	return n
}

// Len returns the number of distinct values.
func (r *Runs) Len() int { return r.n }

// Next returns the next block of runs in ascending order: keys[i] occurs
// counts[i] times. The block is empty once every run has been read, and is
// only valid until the following call.
//
//statcheck:hot
func (r *Runs) Next() (keys, counts []int64) {
	if r.table == nil {
		keys, counts = r.keys, r.counts
		r.keys, r.counts = nil, nil
		return keys, counts
	}
	keys, counts = r.keys[:0], r.counts[:0]
	i := r.i
	for ; i < len(r.table) && len(keys) < cap(keys); i++ {
		if c := r.table[i]; c != 0 {
			keys, counts = append(keys, r.lo+int64(i)), append(counts, c)
		}
	}
	r.i = i
	return keys, counts
}
