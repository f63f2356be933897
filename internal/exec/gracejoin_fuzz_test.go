package exec

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/sitstats/sits/internal/data"
)

// FuzzGraceJoin drives a memory-governed join over random inputs: the seed
// draws the rows, skew sets the key domain and the share of rows on one hot
// key, and budgetDiv picks the budget as a fraction of the build side (0:
// unlimited, 255: 1 byte), so small fractions reach level-1 sub-partitioning
// and the force-admitted residual. A full drain must yield the in-memory
// join's multiset of rows; a drain stopped after stop batches (stop > 0) is
// abandoned. Either way ClosePlan must leave no reservation and no spill file.
func FuzzGraceJoin(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(400), uint8(8), uint16(64), uint8(4), uint8(0), false)
	f.Add(int64(2), uint16(500), uint16(400), uint8(0xc3), uint16(100), uint8(40), uint8(0), true)
	f.Add(int64(3), uint16(600), uint16(600), uint8(31), uint16(1), uint8(255), uint8(3), false)
	f.Add(int64(4), uint16(0), uint16(500), uint8(5), uint16(32), uint8(255), uint8(0), false)
	f.Add(int64(5), uint16(700), uint16(0), uint8(5), uint16(32), uint8(2), uint8(0), true)
	f.Add(int64(6), uint16(600), uint16(500), uint8(0x81), uint16(512), uint8(16), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, nl, nr uint16, skew uint8, batch uint16, budgetDiv, stop uint8, twoConds bool) {
		rng := rand.New(rand.NewSource(seed))
		domain := 1 + int64(skew&63)
		hot := int(skew >> 6) // 0..3 quarters of the rows on key 0
		key := func() int64 {
			if rng.Intn(4) < hot {
				return 0
			}
			return rng.Int63n(domain) - domain/2
		}
		l := data.MustNewTable("L", "k", "k2", "v")
		for i := 0; i < int(nl%1024); i++ {
			l.AppendRow(key(), rng.Int63n(3), int64(i))
		}
		r := data.MustNewTable("R", "k", "k2", "u")
		for i := 0; i < int(nr%1024); i++ {
			r.AppendRow(key(), rng.Int63n(3), int64(-i))
		}
		conds := []JoinCond{{LeftCol: "L.k", RightCol: "R.k"}}
		if twoConds {
			conds = append(conds, JoinCond{LeftCol: "L.k2", RightCol: "R.k2"})
		}
		size := 1 + int(batch%2048)
		var budget int64
		switch budgetDiv {
		case 0:
		case 255:
			budget = 1
		default:
			budget = tableBytes(l)/int64(budgetDiv) + 1
		}

		refJ, err := NewVecHashJoinSize(NewBatchScanSize(l, size), NewBatchScanSize(r, size), size, conds...)
		if err != nil {
			t.Fatal(err)
		}
		want := sortedCopy(drainBatches(t, refJ))

		gov := newGov(t, budget)
		j, err := NewVecHashJoinMem(NewBatchScanSize(l, size), NewBatchScanSize(r, size), size, gov, conds...)
		if err != nil {
			t.Fatal(err)
		}
		if stop > 0 {
			drainN(j, int(stop))
		} else if got := sortedCopy(drainBatches(t, j)); !reflect.DeepEqual(got, want) {
			t.Fatalf("budget %d: %d rows differ from the in-memory join's %d", budget, len(got), len(want))
		}
		ClosePlan(j)
	})
}
