package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ResolveParallelism maps the engine-wide parallelism knob to a worker
// count: 0 (or negative) means one worker per CPU, n > 0 means exactly n.
// It is the single definition shared by sit.Config and the experiment
// configs.
func ResolveParallelism(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForkJoin runs fn(i) for every i in [0, n) and returns once every call has
// finished. The caller and min(width, n)-1 helper goroutines claim indices
// from one atomic counter, so a fast claimer simply takes more; width <= 0
// resolves through ResolveParallelism, and at width 1 (or n == 1) the caller
// runs every index in order with no helper. Fork-joins nest freely: each one
// starts its own helpers rather than waiting on a fixed worker set. A panic
// in fn is re-raised on the caller after every other index has run.
//
// Determinism is the callers' contract: fn must write results only to
// index-i slots, and under that contract the outcome is identical at every
// width.
func ForkJoin(n, width int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		once     sync.Once
		pval     any
		panicked bool
	)
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				once.Do(func() { pval, panicked = r, true })
			}
		}()
		fn(i)
	}
	claim := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			call(i)
		}
	}
	helpers := min(ResolveParallelism(width), n) - 1
	wg.Add(helpers)
	for range helpers {
		go func() {
			claim()
			wg.Done()
		}()
	}
	claim()
	wg.Wait()
	if panicked {
		panic(pval)
	}
}
