// Package radix is the one sorting kernel of the SIT creation path: a stable
// LSD radix sort of int64 keys in signed order that carries a payload column
// through as many scatter passes as the key range needs. Exact aggregation,
// Tally, the batched m-Oracle probes and B+tree bulk loads all sort with it.
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
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
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

// SortedCopy returns vals sorted ascending, leaving vals untouched.
func SortedCopy(vals []int64) []int64 {
	n := len(vals)
	buf := make([]int64, 2*n)
	copy(buf, vals)
	// A zero-size payload: the kernel's payload moves compile to nothing.
	sorted, _ := Sort(buf[:n], buf[n:], make([]struct{}, n), make([]struct{}, n))
	return sorted
}
