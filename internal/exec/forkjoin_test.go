package exec

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolveParallelismHelper(t *testing.T) {
	if got := ResolveParallelism(3); got != 3 {
		t.Errorf("ResolveParallelism(3) = %d", got)
	}
	if got := ResolveParallelism(1); got != 1 {
		t.Errorf("ResolveParallelism(1) = %d", got)
	}
	for _, n := range []int{0, -1} {
		if got := ResolveParallelism(n); got != runtime.GOMAXPROCS(0) {
			t.Errorf("ResolveParallelism(%d) = %d, want GOMAXPROCS", n, got)
		}
	}
}

var forkJoinWidths = []int{0, 1, 2, 4, 8}

// TestForkJoinComputesEveryIndex: every index runs exactly once at every
// width, including the empty and single-index fan-outs.
func TestForkJoinComputesEveryIndex(t *testing.T) {
	for _, n := range []int{0, 1, 3, 1000} {
		for _, width := range forkJoinWidths {
			out := make([]int64, n)
			ForkJoin(n, width, func(i int) { out[i] += int64(i*i) + 1 })
			for i := range out {
				if out[i] != int64(i*i)+1 {
					t.Fatalf("n=%d width=%d: out[%d] = %d, want %d", n, width, i, out[i], i*i+1)
				}
			}
		}
	}
}

// maxInFlight runs a fork-join of n calls at width and returns the most
// calls that were ever in flight at once.
func maxInFlight(n, width int) int64 {
	var inFlight, high atomic.Int64
	ForkJoin(n, width, func(int) {
		now := inFlight.Add(1)
		for h := high.Load(); now > h && !high.CompareAndSwap(h, now); h = high.Load() {
		}
		runtime.Gosched()
		inFlight.Add(-1)
	})
	return high.Load()
}

// TestForkJoinMaxInFlight: at most `width` calls are ever in flight.
func TestForkJoinMaxInFlight(t *testing.T) {
	for _, width := range forkJoinWidths {
		limit := int64(ResolveParallelism(width))
		if got := maxInFlight(200, width); got < 1 || got > limit {
			t.Errorf("width %d: high-water mark %d calls in flight, want 1..%d", width, got, limit)
		}
	}
}

// TestForkJoinSerialAtWidthOne: width 1 runs every call alone, in index order.
func TestForkJoinSerialAtWidthOne(t *testing.T) {
	if got := maxInFlight(200, 1); got != 1 {
		t.Fatalf("width 1: high-water mark %d calls in flight, want 1", got)
	}
	var order []int
	ForkJoin(50, 1, func(i int) { order = append(order, i) })
	if len(order) != 50 {
		t.Fatalf("width 1: %d calls, want 50", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("width 1: call %d ran index %d, want index order", i, v)
		}
	}
}

// TestForkJoinNested: fork-joins inside fork-join calls complete at any
// combination of widths, since each one starts its own helpers.
func TestForkJoinNested(t *testing.T) {
	for _, width := range forkJoinWidths {
		outer := make([]int64, 8)
		ForkJoin(8, width, func(i int) {
			var inner atomic.Int64
			ForkJoin(16, 8, func(j int) { inner.Add(int64(j)) })
			outer[i] = inner.Load()
		})
		for i, v := range outer {
			if v != 120 {
				t.Fatalf("width %d: outer[%d] = %d, want 120", width, i, v)
			}
		}
	}
}

// TestForkJoinPanicPropagates: a panic in one call is re-raised on the
// caller, and only after every other index has run.
func TestForkJoinPanicPropagates(t *testing.T) {
	const n = 32
	for _, width := range forkJoinWidths {
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			var ran atomic.Int64
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want \"boom\"", r)
				}
				if got := ran.Load(); got != n-1 {
					t.Fatalf("%d other indices ran before the panic was replayed, want %d", got, n-1)
				}
			}()
			ForkJoin(n, width, func(i int) {
				if i == 17 {
					panic("boom")
				}
				ran.Add(1)
			})
			t.Fatal("ForkJoin returned instead of panicking")
		})
	}
}

// TestForkJoinLeavesNoGoroutines: no helper outlives the call. A helper's
// last act is to mark itself done, a few instructions before it exits, and
// no goroutine can signal its own exit; so after each ForkJoin the count is
// given a moment, without any further fork-join work, to settle back to its
// start value (a goroutine of an earlier test may still be exiting when
// the start value is read, so the count may also settle below it). A helper
// left parked would never let it settle.
func TestForkJoinLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, width := range forkJoinWidths {
		ForkJoin(64, width, func(int) { runtime.Gosched() })
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if now := runtime.NumGoroutine(); now > before {
			t.Fatalf("width %d: %d goroutines before ForkJoin, %d after it returned", width, before, now)
		}
	}
}
