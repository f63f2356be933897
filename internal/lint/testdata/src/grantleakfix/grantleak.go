// Package grantleakfix seeds grantleak violations and pins the allowed
// lifecycles. It imports the real internal/mem package so the check is
// proven to bind against the actual Governor/Grant types, not just mocks.
package grantleakfix

import (
	"errors"

	"github.com/sitstats/sits/internal/mem"
)

// job stands in for a spill task that takes over a grant.
type job struct {
	g *mem.Grant
}

func work() {}

// leakOnEarlyReturn: the error path returns without closing the grant.
func leakOnEarlyReturn(gov *mem.Governor, fail bool) error {
	g := gov.Grant("scan") // want grantleak
	if fail {
		return errors.New("boom")
	}
	g.Close()
	return nil
}

// closedAllPaths closes on both branches: clean.
func closedAllPaths(gov *mem.Governor, fail bool) error {
	g := gov.Grant("scan")
	if fail {
		g.Close()
		return errors.New("boom")
	}
	g.Close()
	return nil
}

// deferClose covers every path, panics included: clean.
func deferClose(gov *mem.Governor, fail bool) error {
	g := gov.Grant("scan")
	defer g.Close()
	if fail {
		return errors.New("boom")
	}
	return nil
}

// switchLeak leaks through one case of a switch.
func switchLeak(gov *mem.Governor, mode int) {
	g := gov.Grant("scan") // want grantleak
	switch mode {
	case 0:
		g.Close()
	case 1:
		work() // leak: falls to the join without closing
	default:
		g.Close()
	}
}

// forceLeak takes a reservation with Force and returns without Release or
// Close: both the grant and the reservation leak.
func forceLeak(gov *mem.Governor, n int64) {
	g := gov.Grant("sort") // want grantleak
	g.Force(n)             // want grantleak
	work()
}

// tryReserveBranch: the reservation exists only on the success edge, and
// both it and the grant are released there; the failure edge closes the
// grant. Clean.
func tryReserveBranch(gov *mem.Governor, n int64) bool {
	g := gov.Grant("sort")
	if !g.TryReserve(n) {
		g.Close()
		return false
	}
	g.Release(n)
	g.Close()
	return true
}

// Governor and Grant are fixture-local mocks: the check matches receivers
// by type name, so they bind like the mem types. Grant.Reserve models a
// reservation that may spill before admitting, reporting (ok, err).
type Governor struct{}

func (*Governor) Grant(string) *Grant { return &Grant{} }

type Grant struct{}

func (*Grant) Reserve(int64) (bool, error) { return true, nil }
func (*Grant) Release(int64)               {}
func (*Grant) Close()                      {}

// reserveChecked binds the ok result; the failure branch never holds the
// reservation, and Close covers the rest. Clean.
func reserveChecked(gov *Governor, n int64) error {
	g := gov.Grant("sort")
	defer g.Close()
	ok, err := g.Reserve(n)
	if err != nil || !ok {
		return err
	}
	g.Release(n)
	return nil
}

// loopLeak reserves each iteration but releases only on the last: the
// back-edge carries an open reservation and the loop may exit right after a
// Force.
func loopLeak(gov *mem.Governor, sizes []int64) {
	g := gov.Grant("runs") // want grantleak
	for _, n := range sizes {
		g.Force(n) // want grantleak
		work()
	}
}

// storeLeak parks the grant in a struct without declaring the hand-off:
// storing for later does not discharge the obligation.
func storeLeak(gov *mem.Governor) *job {
	g := gov.Grant("spill") // want grantleak
	return &job{g: g}
}

// storeTransferred declares the same hand-off with a transfers directive:
// the job owns the grant now. Clean.
func storeTransferred(gov *mem.Governor) *job {
	g := gov.Grant("spill")
	//statcheck:transfers g the spill job closes it when drained
	return &job{g: g}
}

// handoffByCall passes the grant to another function, which takes over the
// obligation (intraprocedural boundary). Clean by policy.
func handoffByCall(gov *mem.Governor) {
	g := gov.Grant("scan")
	adopt(g)
}

func adopt(g *mem.Grant) {
	g.Close()
}

// suppressedLeak is the twin of leakOnEarlyReturn with the finding
// suppressed in place; the fixture's exact-match harness proves the
// directive silences exactly this line and nothing else.
func suppressedLeak(gov *mem.Governor, fail bool) error {
	g := gov.Grant("scan") //statcheck:ignore grantleak fixture: deliberate leak, freed at process exit
	if fail {
		return errors.New("boom")
	}
	g.Close()
	return nil
}

// panicGuarded: the panic path runs deferred closes. Clean.
func panicGuarded(gov *mem.Governor, bad bool) {
	g := gov.Grant("scan")
	defer g.Close()
	if bad {
		panic("invariant")
	}
	work()
}
