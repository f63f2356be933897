package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the engine's shared worker pool. Before it existed,
// parallelism lived in disconnected islands — the shared-scan fan-out, the
// experiment sweeps — each spawning its own goroutines and oversubscribing
// the machine when they nested. The pool puts one set of workers (one per
// CPU, started lazily on first use) under all of them: callers fork morsels
// of work, idle workers help claim them, and a blocked forker claims its own
// morsels so nested fork-joins can never deadlock on a busy pool.
//
// Determinism is the callers' contract, not the pool's: every fork-join runs
// fn(i) for a fixed index set with each index writing to its own slot, so
// results are independent of which worker claims which morsel, at any pool
// width. The pool only schedules.

// Task is one unit of pool work.
type Task func()

// Pool is a fixed set of workers draining one FIFO task queue. Every task a
// fork-join submits is a helper that claims morsels from its group's atomic
// counter, so load balances through the counter and the queue needs no
// per-worker structure. Workers are spawned lazily on the first submission
// and park on a condition variable when the queue is empty.
type Pool struct {
	width int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []Task
	spawned bool
	closed  bool
	running int // tasks currently executing
	wg      sync.WaitGroup
}

// NewPool creates a pool of `width` workers (minimum 1). Workers are not
// started until the first Submit.
func NewPool(width int) *Pool {
	if width < 1 {
		width = 1
	}
	p := &Pool{width: width}
	p.cond = sync.NewCond(&p.mu)
	return p
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide pool: one worker per CPU, started lazily,
// never closed. Every fan-out — shared scans, segment conversion, experiment
// sweeps — runs on this one pool, so nested parallel work shares the machine
// instead of multiplying goroutines.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = NewPool(runtime.GOMAXPROCS(0)) })
	return defaultPool
}

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

// Width returns the pool's worker count. A nil pool has width 1 (serial).
func (p *Pool) Width() int {
	if p == nil {
		return 1
	}
	return p.width
}

// Submit enqueues t for execution by a pool worker, spawning the workers on
// first use. On a nil or closed pool the task runs inline.
func (p *Pool) Submit(t Task) {
	if t == nil {
		return
	}
	if p == nil {
		t()
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		t()
		return
	}
	if !p.spawned {
		p.spawned = true
		p.wg.Add(p.width)
		for w := 0; w < p.width; w++ {
			go p.worker()
		}
	}
	p.queue = append(p.queue, t)
	p.cond.Signal()
	p.mu.Unlock()
}

// worker is one pool worker's loop: run the oldest queued task, park when
// the queue is empty.
func (p *Pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		if len(p.queue) == 0 {
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
			continue
		}
		t := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		p.running++
		p.mu.Unlock()
		t()
		p.mu.Lock()
		p.running--
		if p.running == 0 && len(p.queue) == 0 {
			// Wake Close and Idle-pollers; workers re-check and re-park.
			p.cond.Broadcast()
		}
	}
}

// Idle reports whether the pool has no queued and no running tasks.
func (p *Pool) Idle() bool {
	if p == nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.running == 0 && len(p.queue) == 0
}

// Close drains every queued task and stops the workers; it returns once all
// worker goroutines have exited. Submissions after Close run inline. The
// Default pool is never closed.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// fjGroup is one fork-join fan-out. Morsel indices are claimed from an
// atomic counter (the load-balancing granularity: a fast claimer simply takes
// more morsels), completions are counted so the forker can join, and the
// first panic is captured and replayed on the forking goroutine.
type fjGroup struct {
	fn        func(int)
	n         int64
	next      int64
	completed int64
	done      chan struct{}
	panicOnce sync.Once
	panicked  atomic.Bool
	pval      any
}

// runClaims claims and runs morsels until the group is exhausted. It is the
// body of both the helper tasks and the forking caller.
func (g *fjGroup) runClaims() {
	for {
		i := atomic.AddInt64(&g.next, 1) - 1
		if i >= g.n {
			return
		}
		g.call(int(i))
	}
}

func (g *fjGroup) call(i int) {
	defer func() {
		if r := recover(); r != nil {
			g.panicOnce.Do(func() {
				g.pval = r
				g.panicked.Store(true)
			})
		}
		if atomic.AddInt64(&g.completed, 1) == g.n {
			close(g.done)
		}
	}()
	g.fn(i)
}

// ForkJoin runs fn(i) for every i in [0, n) across the pool and returns when
// all calls have completed. The calling goroutine participates (it claims
// morsels like a worker), so nested ForkJoins make progress even when every
// pool worker is busy. A panic in fn is re-raised on the caller after the
// remaining morsels finish. fn must write results only to index-i slots;
// under that contract the outcome is identical at every pool width.
func (p *Pool) ForkJoin(n int, fn func(i int)) { p.ForkJoinWidth(n, 0, fn) }

// ForkJoinWidth is ForkJoin with an explicit concurrency cap: at most
// `width` goroutines (width-1 pool helpers plus the caller) claim morsels
// (<= 0 means the pool's width). The cap bounds concurrency only — results
// never depend on it.
func (p *Pool) ForkJoinWidth(n, width int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if width <= 0 {
		width = p.Width()
	}
	if p == nil || n == 1 || width == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	g := &fjGroup{fn: fn, n: int64(n), done: make(chan struct{})}
	helpers := width - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	for h := 0; h < helpers; h++ {
		p.Submit(g.runClaims)
	}
	g.runClaims()
	<-g.done
	if g.panicked.Load() {
		panic(g.pval)
	}
}
