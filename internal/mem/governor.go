// Package mem is the memory-governance layer of the engine: a process-wide
// byte-budget Governor with per-operator grants, and a run store that spills
// columnar batches to checksummed temp files when a grant is denied.
//
// The execution operators (hash join build sides) reserve their
// working memory through a Grant before growing it. When the budget is
// exhausted the reservation is denied and the operator spills part of its
// state to the run store, releasing the bytes it no longer holds in RAM; the
// engine's core invariant is that spilling never changes results — an
// operator yields the in-memory execution's rows, possibly in another order,
// at any parallelism and any budget, including pathological 1-byte budgets.
//
// All methods are safe on a nil *Governor and a nil *Grant, which behave as
// an unlimited budget: operators thread the governor through unconditionally
// and pay no branches for the common un-budgeted configuration.
package mem

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Governor owns one byte budget shared by every operator of an engine run —
// and, since the engine became a long-lived service, by every concurrent
// Builder of the process ("one budget across the engine"). Operators obtain
// per-operator Grants and reserve/release bytes through them; the Governor
// tracks the total and the high-water mark. A budget of 0 means unlimited:
// every reservation is admitted and nothing ever spills.
//
// The ledger is lock-free: used and peak are atomics updated by CAS loops,
// so thousands of concurrent requests admitting and releasing scratch do not
// serialize on a mutex. The mutex only guards the lazily created run store.
type Governor struct {
	budget int64 // immutable after construction
	used   atomic.Int64
	peak   atomic.Int64

	mu        sync.Mutex // guards store/storeErr
	store     *RunStore
	storeErr  error
	storeOnce sync.Once
}

// NewGovernor creates a Governor with the given byte budget (0 = unlimited).
func NewGovernor(budget int64) *Governor {
	if budget < 0 {
		budget = 0
	}
	return &Governor{budget: budget}
}

// Unlimited reports whether the governor admits every reservation. A nil
// governor is unlimited.
func (g *Governor) Unlimited() bool { return g == nil || g.budget == 0 }

// Budget returns the configured byte budget (0 = unlimited).
func (g *Governor) Budget() int64 {
	if g == nil {
		return 0
	}
	return g.budget
}

// Used returns the currently reserved bytes.
func (g *Governor) Used() int64 {
	if g == nil {
		return 0
	}
	return g.used.Load()
}

// Peak returns the high-water mark of reserved bytes over the governor's
// lifetime, the quantity budget-compliance tests assert against.
func (g *Governor) Peak() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}

// reserve attempts to admit n bytes. force admits even past the budget (for
// bounded operator scratch that has no spill alternative). The admission
// check and the ledger update are one CAS, so concurrent reservations can
// never jointly overshoot the budget.
func (g *Governor) reserve(n int64, force bool) bool {
	if g == nil || n <= 0 {
		return true
	}
	for {
		u := g.used.Load()
		if !force && g.budget > 0 && u+n > g.budget {
			return false
		}
		if g.used.CompareAndSwap(u, u+n) {
			g.bumpPeak(u + n)
			return true
		}
	}
}

// bumpPeak raises the high-water mark to at least v. Peak is monotone, so a
// lost CAS race against a larger concurrent value needs no retry.
func (g *Governor) bumpPeak(v int64) {
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

func (g *Governor) release(n int64) {
	if g == nil || n <= 0 {
		return
	}
	for {
		u := g.used.Load()
		m := n
		if m > u {
			m = u // clamp: never drive the ledger negative
		}
		if m == 0 || g.used.CompareAndSwap(u, u-m) {
			return
		}
	}
}

// Runs returns the governor's run store, creating its temp directory on
// first use. Spill files live there until Close.
func (g *Governor) Runs() (*RunStore, error) {
	if g == nil {
		return nil, fmt.Errorf("mem: nil governor has no run store")
	}
	g.storeOnce.Do(func() {
		store, err := NewRunStore("")
		g.mu.Lock()
		g.store, g.storeErr = store, err
		g.mu.Unlock()
	})
	return g.store, g.storeErr
}

// Close releases the governor's run store (removing every spill file and the
// temp directory). It is safe on a nil governor and safe to call twice.
func (g *Governor) Close() error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	store := g.store
	g.store = nil
	g.mu.Unlock()
	if store == nil {
		return nil
	}
	return store.Close()
}

// Grant is one operator's window onto the governor: it tracks the bytes the
// operator holds so Close can release any remainder. A nil Grant admits
// everything. Reservation and release are safe for concurrent use, so one
// pooled grant can account the scratch of every worker in a parallel
// fan-out. An operator whose TryReserve is denied spills its own state.
type Grant struct {
	g    *Governor
	name string
	used atomic.Int64
}

// Grant opens a named per-operator grant. The name appears in diagnostics
// only. Works on a nil governor, returning a grant that admits everything.
func (g *Governor) Grant(name string) *Grant {
	return &Grant{g: g, name: name}
}

// TryReserve attempts to reserve n bytes without spilling. It reports
// whether the bytes were admitted.
func (gr *Grant) TryReserve(n int64) bool {
	if gr == nil {
		return true
	}
	if !gr.g.reserve(n, false) {
		return false
	}
	gr.used.Add(n)
	return true
}

// Force reserves n bytes unconditionally. It is for small bounded scratch
// (read buffers, cursors) that has no spill alternative; the bytes still
// count toward Used and Peak.
func (gr *Grant) Force(n int64) {
	if gr == nil {
		return
	}
	gr.g.reserve(n, true)
	gr.used.Add(n)
}

// Release returns n reserved bytes to the budget, clamped to what the grant
// actually holds.
func (gr *Grant) Release(n int64) {
	if gr == nil || n <= 0 {
		return
	}
	for {
		u := gr.used.Load()
		m := n
		if m > u {
			m = u
		}
		if m <= 0 {
			return
		}
		if gr.used.CompareAndSwap(u, u-m) {
			gr.g.release(m)
			return
		}
	}
}

// Used returns the bytes currently held by this grant.
func (gr *Grant) Used() int64 {
	if gr == nil {
		return 0
	}
	return gr.used.Load()
}

// Close releases everything the grant still holds.
func (gr *Grant) Close() {
	if gr == nil {
		return
	}
	gr.g.release(gr.used.Swap(0))
}

// ParseBytes parses a human byte-size string: a non-negative integer with an
// optional binary suffix K, M, G, or T (case-insensitive, optionally
// followed by "B" or "iB", e.g. "512M", "2GiB", "64kb"). "0" means
// unlimited.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("mem: empty size")
	}
	upper := strings.ToUpper(t)
	mult := int64(1)
	for _, suf := range []struct {
		tag string
		m   int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30}, {"TIB", 1 << 40},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"TB", 1 << 40},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"T", 1 << 40},
		{"B", 1},
	} {
		if strings.HasSuffix(upper, suf.tag) {
			mult = suf.m
			upper = strings.TrimSuffix(upper, suf.tag)
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("mem: bad size %q: %v", s, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("mem: size %q must be non-negative", s)
	}
	if mult > 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("mem: size %q overflows", s)
	}
	return n * mult, nil
}
