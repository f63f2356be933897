// Package radix is the one sorting kernel of the SIT creation path: a stable
// LSD radix sort over int64 keys in signed order that can carry a payload
// column (a permutation, a weight) through the same scatter passes. Exact
// aggregation, Tally, the batched m-Oracle probes and B+tree bulk loads all
// sort through it, so none of them hashes a value or calls a comparator.
package radix

// Sort stably sorts keys ascending in signed order and moves pay[i] with
// keys[i]. tmpK and tmpP are ping-pong buffers at least as long as keys; pay
// must be as long as keys. Bytes that are constant across the vector are
// skipped, so keys from a narrow domain need only one or two histogram and
// scatter passes. The sign is handled in the top byte's bucket order
// (0x80..0xff before 0x00..0x7f) instead of by biasing the keys.
//
// The result lands in the inputs after an even number of scatter passes and
// in the ping-pong buffers after an odd number; Sort returns whichever pair
// holds it, and the other pair is clobbered.
//
//statcheck:hot
func Sort[P any](keys, tmpK []int64, pay, tmpP []P) ([]int64, []P) {
	n := len(keys)
	if n < 2 {
		return keys, pay
	}
	// One cheap pre-scan finds the bytes that vary at all; only those are
	// histogrammed and scattered.
	first := uint64(keys[0])
	var diff uint64
	for _, k := range keys {
		diff |= uint64(k) ^ first
	}
	srcK, dstK := keys, tmpK[:n]
	srcP, dstP := pay[:n], tmpP[:n]
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue // byte constant across the vector
		}
		var offs [256]int
		for _, k := range srcK {
			offs[byte(uint64(k)>>shift)]++
		}
		flip := 0
		if shift == 56 {
			flip = 0x80 // negative keys (top bit set) sort first
		}
		sum := 0
		for i := 0; i < 256; i++ {
			d := byte(i ^ flip)
			sum, offs[d] = sum+offs[d], sum
		}
		srcP = srcP[:len(srcK)]
		for i, k := range srcK {
			d := byte(uint64(k) >> shift)
			o := offs[d]
			offs[d] = o + 1
			dstK[o] = k
			dstP[o] = srcP[i]
		}
		srcK, dstK = dstK, srcK
		srcP, dstP = dstP, srcP
	}
	return srcK, srcP
}

// SortedCopy returns vals sorted ascending, leaving vals untouched.
func SortedCopy(vals []int64) []int64 {
	n := len(vals)
	buf := make([]int64, 2*n)
	copy(buf, vals)
	// A zero-size payload: the kernel's payload moves compile to nothing.
	none := make([]struct{}, n)
	sorted, _ := Sort(buf[:n], buf[n:], none, none)
	return sorted
}
