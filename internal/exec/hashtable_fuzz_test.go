package exec

import (
	"encoding/binary"
	"reflect"
	"testing"

	"github.com/sitstats/sits/internal/data"
)

// hashSeedInv is the multiplicative inverse of hashSeed modulo 2^64
// (hashSeed is odd), computed by Newton iteration.
func hashSeedInv() uint64 {
	inv := uint64(hashSeed)
	for i := 0; i < 6; i++ {
		inv *= 2 - hashSeed*inv
	}
	return inv
}

// collidingTuple solves for a second tuple (b1, b2) with
// hashVals([a1, a2]) == hashVals([b1, b2]) given any b1 != a1. hashVals for a
// 2-tuple is mix64(mix64(2 ^ a1*seed) ^ a2*seed); mix64 is a bijection, so
// equality reduces to mix64(2^a1*s) ^ a2*s == mix64(2^b1*s) ^ b2*s, which is
// linear in b2*s and solvable exactly because s is invertible mod 2^64.
func collidingTuple(a1, a2, b1 int64) int64 {
	s := uint64(hashSeed)
	inner := func(v1 int64) uint64 { return mix64(2 ^ uint64(v1)*s) }
	d := inner(a1) ^ inner(b1)
	b2 := hashSeedInv() * (uint64(a2)*s ^ d)
	return int64(b2)
}

// TestHashValsCollisionConstruction sanity-checks the collision solver.
func TestHashValsCollisionConstruction(t *testing.T) {
	if hashSeed*hashSeedInv() != 1 {
		t.Fatal("hashSeedInv is not the inverse of hashSeed")
	}
	for _, c := range []struct{ a1, a2, b1 int64 }{
		{1, 2, 3}, {0, 0, 1}, {-5, 17, 9}, {1 << 40, -1, -(1 << 40)},
	} {
		b2 := collidingTuple(c.a1, c.a2, c.b1)
		ha := hashVals([]int64{c.a1, c.a2})
		hb := hashVals([]int64{c.b1, b2})
		if ha != hb {
			t.Fatalf("(%d,%d) vs (%d,%d): hashes %x != %x", c.a1, c.a2, c.b1, b2, ha, hb)
		}
		if c.a1 == c.b1 && c.a2 == b2 {
			t.Fatalf("solver returned the same tuple")
		}
	}
}

// TestJoinTableAdversarialCollisions builds a two-condition join whose build
// side is saturated with distinct key tuples sharing identical 64-bit slot
// keys. Every chain then mixes genuinely different tuples, so a probe that
// skipped the arena verification would emit cross-matches. The output must
// still equal the nested-loop reference exactly.
func TestJoinTableAdversarialCollisions(t *testing.T) {
	r := data.MustNewTable("R", "w", "y", "p")
	s := data.MustNewTable("S", "x", "z", "q")
	var pay int64
	addPair := func(a1, a2, b1 int64) {
		b2 := collidingTuple(a1, a2, b1)
		r.AppendRow(a1, a2, pay)
		r.AppendRow(b1, b2, pay+1)
		// Probe with both tuples of the colliding pair, plus a near-miss that
		// shares neither but reuses one component.
		s.AppendRow(a1, a2, pay+2)
		s.AppendRow(b1, b2, pay+3)
		s.AppendRow(a1, b2, pay+4)
		pay += 5
	}
	for i := int64(0); i < 200; i++ {
		addPair(i, -3*i+7, i+1000)
		addPair(-i, i<<33, i)
	}
	conds := []JoinCond{{LeftCol: "R.w", RightCol: "S.x"}, {LeftCol: "R.y", RightCol: "S.z"}}
	want := nestedLoop(t, scanRel(t, r), scanRel(t, s), conds...).rows
	sortRows(want)
	if len(want) == 0 {
		t.Fatal("degenerate adversarial input: no true matches")
	}
	vj, err := NewVecHashJoinSize(NewBatchScan(r), NewBatchScan(s), 0, conds...)
	if err != nil {
		t.Fatal(err)
	}
	got := drainBatches(t, vj)
	sortRows(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%d rows, want %d — slot-key collisions broke verification", len(got), len(want))
	}
}

// FuzzJoinTableMultiCond feeds arbitrary byte strings decoded as build/probe
// tuples through the two-condition vectorized hash join and cross-checks the
// result multiset against the nested-loop reference.
func FuzzJoinTableMultiCond(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	// A colliding pair, serialized, so the corpus starts on the hard case.
	seed := make([]byte, 0, 64)
	for _, v := range []int64{5, 9, 6, collidingTuple(5, 9, 6)} {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(v))
	}
	f.Add(append(seed, seed...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Decode pairs of int64s; alternate tuples between build and probe.
		var vals []int64
		for i := 0; i+8 <= len(raw) && len(vals) < 400; i += 8 {
			v := int64(binary.LittleEndian.Uint64(raw[i:]))
			vals = append(vals, v, v%17) // second component collides often
		}
		r := data.MustNewTable("R", "w", "y", "p")
		s := data.MustNewTable("S", "x", "z", "q")
		for i := 0; i+1 < len(vals); i += 2 {
			if (i/2)%2 == 0 {
				r.AppendRow(vals[i], vals[i+1], int64(i))
			} else {
				s.AppendRow(vals[i], vals[i+1], int64(i))
			}
		}
		conds := []JoinCond{{LeftCol: "R.w", RightCol: "S.x"}, {LeftCol: "R.y", RightCol: "S.z"}}
		want := nestedLoop(t, scanRel(t, r), scanRel(t, s), conds...).rows
		sortRows(want)
		vj, err := NewVecHashJoinSize(NewBatchScan(r), NewBatchScan(s), 0, conds...)
		if err != nil {
			t.Fatal(err)
		}
		got := drainBatches(t, vj)
		sortRows(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("VecHashJoin multiset != nested loop (%d vs %d rows)", len(got), len(want))
		}
	})
}
