package serve

import (
	"encoding/binary"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/sitstats/sits/internal/cardest"
)

// ident is a request's identity in one serving tier: the canonical
// expression, the normalized predicates (with their constants in the result
// tier, only their columns in the plan tier) and the snapshot pin.
type ident struct {
	canon  string
	preds  []cardest.Predicate
	consts bool
	pin    []uint64
}

// hashSeed is process-random: fingerprints are never persisted.
var hashSeed = maphash.MakeSeed()

// fingerprints hashes a request's identity once for both tiers: the plan
// tier's fingerprint covers the expression, the columns and the pin; the
// result tier's continues the same hash over the constants.
//
//statcheck:hot
func fingerprints(canon string, preds []cardest.Predicate, pin []uint64) (shape, result uint64) {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	h.WriteString(canon)
	for i := range preds {
		h.WriteByte(0)
		h.WriteString(preds[i].Table)
		h.WriteByte(0)
		h.WriteString(preds[i].Attr)
	}
	h.WriteByte(1)
	var buf [64]byte
	words := buf[:0]
	for _, w := range pin {
		if len(words) == len(buf) {
			h.Write(words)
			words = buf[:0]
		}
		words = binary.LittleEndian.AppendUint64(words, w)
	}
	h.Write(words)
	shape = h.Sum64()
	for i := range preds {
		var lohi [16]byte
		binary.LittleEndian.PutUint64(lohi[:8], uint64(preds[i].Lo))
		binary.LittleEndian.PutUint64(lohi[8:], uint64(preds[i].Hi))
		h.Write(lohi[:])
	}
	return shape, h.Sum64()
}

// equal reports whether two identities name the same entry: the check that
// turns a fingerprint collision into a miss rather than a wrong answer.
//
//statcheck:hot
func (id *ident) equal(o *ident) bool {
	if id.consts != o.consts || id.canon != o.canon || len(id.preds) != len(o.preds) || !slices.Equal(id.pin, o.pin) {
		return false
	}
	for i := range id.preds {
		a, b := &id.preds[i], &o.preds[i]
		if a.Table != b.Table || a.Attr != b.Attr || id.consts && (a.Lo != b.Lo || a.Hi != b.Hi) {
			return false
		}
	}
	return true
}

// copyTo makes dst an owned copy of the identity, reusing dst's slices.
// Sharing id.canon would move every caller's stack pin buffer to the heap
// (escape analysis is field-insensitive), so a changed canon is cloned.
func (id *ident) copyTo(dst *ident) {
	if dst.canon != id.canon {
		dst.canon = strings.Clone(id.canon)
	}
	dst.consts = id.consts
	dst.preds = append(dst.preds[:0], id.preds...)
	dst.pin = append(dst.pin[:0], id.pin...)
}

// lru is a bounded map from identities to values with least-recently-used
// eviction, one for results and one for plans: slots linked in recency
// order by index, found by fingerprint, verified by identity. Identities
// embed the snapshot pin, so invalidation is structural: a moved pin strands
// the stale entry until the LRU bound reclaims it.
type lru[V any] struct {
	mu         sync.Mutex
	max        int
	slots      []slot[V]
	index      map[uint64]int32
	head, tail int32 // most and least recently used slot; -1 when empty

	evictions atomic.Int64 // entries removed by the size bound
}

// slot is one resident entry and its recency links.
type slot[V any] struct {
	h          uint64
	id         ident
	val        V
	prev, next int32
}

func newLRU[V any](max int) *lru[V] {
	return &lru[V]{max: max, index: make(map[uint64]int32), head: -1, tail: -1}
}

// get returns the value stored under fingerprint h for the identity,
// promoting it to most recently used. The value is shared — callers must
// treat it as immutable.
//
//statcheck:hot
func (c *lru[V]) get(h uint64, id *ident) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[h]
	if !ok || !c.slots[i].id.equal(id) {
		var zero V
		return zero, false
	}
	c.unlink(i)
	c.pushFront(i)
	return c.slots[i].val, true
}

// put stores the value for the identity under fingerprint h, overwriting an
// entry already under h (equal or colliding) or evicting past the bound.
func (c *lru[V]) put(h uint64, id *ident, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[h]
	switch {
	case ok:
		c.unlink(i)
	case len(c.slots) < c.max:
		i = int32(len(c.slots))
		c.slots = append(c.slots, slot[V]{})
		c.index[h] = i
	default:
		i = c.tail
		c.unlink(i)
		delete(c.index, c.slots[i].h)
		c.index[h] = i
		c.evictions.Add(1)
	}
	s := &c.slots[i]
	s.h, s.val = h, val
	id.copyTo(&s.id)
	c.pushFront(i)
}

// unlink removes slot i from the recency list.
func (c *lru[V]) unlink(i int32) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

// pushFront makes slot i the most recently used.
func (c *lru[V]) pushFront(i int32) {
	s := &c.slots[i]
	s.prev, s.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// len returns the resident entry count.
func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}
