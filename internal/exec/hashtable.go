package exec

// joinTable is the hash-join core behind VecHashJoin.
//
// Build rows live in a flat row-major arena ([]int64 with a fixed stride =
// number of build columns), so the build phase performs zero per-row slice
// allocations: appending a batch grows one slice. Lookup is an open-addressing
// table with linear probing over power-of-two slot arrays. Each claimed slot
// holds a 64-bit slot key — the raw attribute value for single-condition joins
// (exact, no verification needed) or a 64-bit mix of the condition columns for
// multi-condition joins (verified against the arena on probe) — plus the head
// and tail of the chain of build rows sharing that slot key. Chains thread
// through a per-row next array in insertion order, so probes emit matches in
// build-input order.
type joinTable struct {
	stride int   // arena row width (number of build columns)
	keyIdx []int // key column offsets within an arena row
	single bool  // one join condition: slot keys are raw values

	arena []int64 // row-major build rows
	rows  int

	next []int32 // chain links, 1-based; 0 terminates
	mask uint64
	key  []uint64 // slot key; meaningful only where head != 0
	head []int32  // 1-based first build row of the slot's chain; 0 = empty
	tail []int32  // 1-based last build row of the slot's chain

	keys, hs []uint64 // build's per-row slot key and hash scratch
}

func newJoinTable(stride int, keyIdx []int) *joinTable {
	return &joinTable{stride: stride, keyIdx: keyIdx, single: len(keyIdx) == 1}
}

// mix64 is the 64-bit finalizer of MurmurHash3: a cheap, high-quality mixer.
//
//statcheck:hot
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

const hashSeed = 0x9e3779b97f4a7c15 // golden-ratio increment, splitmix64 style

// hashVals mixes a multi-condition key tuple into 64 bits.
//
//statcheck:hot
func hashVals(vals []int64) uint64 {
	h := uint64(len(vals))
	for _, v := range vals {
		h = mix64(h ^ (uint64(v) * hashSeed))
	}
	return h
}

// grow extends the arena by n values without the temporary slice an
// append(make(...)) would allocate.
//
//statcheck:hot
func (t *joinTable) grow(n int) []int64 {
	need := len(t.arena) + n
	if cap(t.arena) < need {
		newCap := 2 * cap(t.arena)
		if newCap < need {
			newCap = need
		}
		if newCap < 1024 {
			newCap = 1024
		}
		grown := make([]int64, len(t.arena), newCap)
		copy(grown, t.arena)
		t.arena = grown
	}
	t.arena = t.arena[:need]
	return t.arena[need-n:]
}

// appendBatch transposes a column batch into the arena (row-major), applying
// the batch's selection vector: arena column k is batch column cols[k].
//
//statcheck:hot
func (t *joinTable) appendBatch(b *Batch, cols []int) {
	n := b.NumRows()
	if n == 0 {
		return
	}
	dst := t.grow(n * t.stride)
	for ci, c := range cols {
		col := b.Cols[c]
		if b.Sel != nil {
			for i, r := range b.Sel {
				dst[i*t.stride+ci] = col[r]
			}
		} else {
			for i := 0; i < n; i++ {
				dst[i*t.stride+ci] = col[i]
			}
		}
	}
	t.rows += n
}

// slotKeyHash returns build row i's slot key and hash.
//
//statcheck:hot
func (t *joinTable) slotKeyHash(i int) (uint64, uint64) {
	return t.rowKeyHash(t.arena[i*t.stride : (i+1)*t.stride])
}

// rowKeyHash returns the slot key and hash of one build-side row, wherever
// it lives (arena, spill buffer, or run chunk). It is the single definition
// of the build-side hash, so grace partitioning routes a key to the same
// partition no matter which phase computed the hash.
//
//statcheck:hot
func (t *joinTable) rowKeyHash(row []int64) (uint64, uint64) {
	if t.single {
		v := uint64(row[t.keyIdx[0]])
		return v, mix64(v)
	}
	h := uint64(len(t.keyIdx))
	for _, k := range t.keyIdx {
		h = mix64(h ^ (uint64(row[k]) * hashSeed))
	}
	return h, h
}

// probeKeyHash returns the slot key and hash for a probe-side key tuple.
//
//statcheck:hot
func (t *joinTable) probeKeyHash(vals []int64) (uint64, uint64) {
	if t.single {
		v := uint64(vals[0])
		return v, mix64(v)
	}
	h := hashVals(vals)
	return h, h
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// reset empties the table for the next grace partition. The arena, chain
// links, slot arrays and hash scratch keep their capacity, so partitions
// after the first allocate only when they outgrow every earlier one.
func (t *joinTable) reset() {
	t.arena = t.arena[:0]
	t.rows = 0
}

// resize returns s with length n, reusing its backing array when the
// capacity suffices; reused elements keep stale values.
func resize[T int32 | uint64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// build hashes every arena row into slot arrays sized to load factor <= 1/2,
// so linear probing always terminates. Chains grow at the tail, in ascending
// arena order, so they preserve build-input order. Only next and head need
// zeroing: key and tail are read only where head is set.
func (t *joinTable) build() {
	n := t.rows
	size := nextPow2(2 * n)
	if size < 8 {
		size = 8
	}
	t.next = resize(t.next, n)
	clear(t.next)
	t.mask = uint64(size - 1)
	t.key = resize(t.key, size)
	t.head = resize(t.head, size)
	clear(t.head)
	t.tail = resize(t.tail, size)
	// Hash every row before inserting any: on a 1 M-row build this measured
	// about 8 % faster than one fused hash-and-insert loop.
	t.keys, t.hs = resize(t.keys, n), resize(t.hs, n)
	keys, hs := t.keys, t.hs
	for i := 0; i < n; i++ {
		keys[i], hs[i] = t.slotKeyHash(i)
	}
	for i := 0; i < n; i++ {
		t.insert(int32(i), keys[i], hs[i])
	}
}

// insert links build row r (0-based) into its slot's chain.
//
//statcheck:hot
func (t *joinTable) insert(r int32, key, h uint64) {
	slot := h & t.mask
	for {
		if t.head[slot] == 0 {
			t.key[slot] = key
			t.head[slot] = r + 1
			t.tail[slot] = r + 1
			return
		}
		if t.key[slot] == key {
			t.next[t.tail[slot]-1] = r + 1
			t.tail[slot] = r + 1
			return
		}
		slot = (slot + 1) & t.mask
	}
}

// probeHead returns the 1-based head of the chain whose slot key matches, or
// 0 when the key is absent. For multi-condition joins the caller must verify
// each chain row with matches (slot keys are hashes there).
//
//statcheck:hot
func (t *joinTable) probeHead(key, h uint64) int32 {
	slot := h & t.mask
	for {
		hd := t.head[slot]
		if hd == 0 {
			return 0
		}
		if t.key[slot] == key {
			return hd
		}
		slot = (slot + 1) & t.mask
	}
}

// chainNext returns the chain successor of 1-based build row r (0 = end).
//
//statcheck:hot
func (t *joinTable) chainNext(r int32) int32 { return t.next[r-1] }

// buildRow returns the arena slice of 1-based build row r.
//
//statcheck:hot
func (t *joinTable) buildRow(r int32) []int64 {
	off := int(r-1) * t.stride
	return t.arena[off : off+t.stride]
}

// matches verifies a chain row's key columns against the probe tuple; only
// needed for multi-condition joins, where distinct tuples can share a mixed
// slot key.
//
//statcheck:hot
func (t *joinTable) matches(r int32, vals []int64) bool {
	row := t.buildRow(r)
	for i, k := range t.keyIdx {
		if row[k] != vals[i] {
			return false
		}
	}
	return true
}
