// Package poolblockfix seeds poolblock violations with a structural Pool
// mock: the check matches any type named Pool, so the fixture needs no
// import of internal/exec.
package poolblockfix

// Pool mirrors the exec.Pool surface the check cares about.
type Pool struct{}

func (p *Pool) Submit(task func())                  {}
func (p *Pool) ForkJoin(tasks []func())             {}
func (p *Pool) ForkJoinWidth(w int, tasks []func()) {}
func (p *Pool) Close()                              {}

// Default mirrors exec.Default.
func Default() *Pool { return &Pool{} }

// fjGroup mirrors exec's fork-join group.
type fjGroup struct {
	next int64
}

// runClaims is the caller-participates claim loop: no blocking pool calls.
func (g *fjGroup) runClaims() {}

// nestedFanout blocks the worker on a nested fan-out: the classic deadlock.
func nestedFanout(p *Pool, tasks []func()) {
	p.Submit(func() {
		p.ForkJoin(tasks) // want poolblock
	})
}

// viaDefault reaches the pool through the package accessor instead of a
// captured variable; still the same pool, still flagged.
func viaDefault(tasks []func()) {
	Default().Submit(func() {
		Default().ForkJoinWidth(2, tasks) // want poolblock
	})
}

// closeFromTask: closing the pool from one of its own workers waits on
// itself.
func closeFromTask(p *Pool) {
	p.Submit(func() {
		p.Close() // want poolblock
	})
}

// nestedLiteral: the blocking call hides one literal deeper; the worker may
// run it inline, so it is still flagged.
func nestedLiteral(p *Pool, tasks []func()) {
	p.Submit(func() {
		drain := func() {
			p.ForkJoin(tasks) // want poolblock
		}
		drain()
	})
}

// resubmitOK: Submit from a task never blocks (it only enqueues). Clean.
func resubmitOK(p *Pool) {
	p.Submit(func() {
		p.Submit(func() {})
	})
}

// methodValueOK submits a method value, as ForkJoinWidth submits its
// helpers: it carries no literal to inspect. Clean by design.
func methodValueOK(p *Pool, g *fjGroup) {
	p.Submit(g.runClaims)
}

// outsideOK: blocking entry points are fine outside submitted tasks.
func outsideOK(p *Pool, tasks []func()) {
	p.ForkJoin(tasks)
	p.Close()
}
