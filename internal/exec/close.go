package exec

// This file is the plan-close protocol. Operator trees reserve governed
// memory (hash-join arenas) and create spill runs as they execute, and
// historically nothing released those at end of stream: the Builder owned
// its Governor outright, so tearing the governor down reclaimed everything
// wholesale. A governor shared across concurrent builders (Config.Governor)
// outlives any one plan, so a drained plan that keeps its reservations leaks
// budget forever. ClosePlan walks the tree and returns every grant and spill
// run a plan still holds.

// PlanCloser is implemented by operators that hold governed resources or
// wrap children that might. ClosePlan releases this operator's reservations
// and spill runs and recursively closes its inputs.
type PlanCloser interface{ ClosePlan() }

// ClosePlan releases the governed memory reservations and spill runs held
// anywhere in an operator tree, recursing through wrapper operators. It is
// safe on any operator (those without governed state are no-ops) and on
// partially-drained plans. The tree must not be used after ClosePlan —
// retained results (materialized tables, drained values) are unaffected.
func ClosePlan(op any) {
	if c, ok := op.(PlanCloser); ok {
		c.ClosePlan()
	}
}

// ClosePlan releases the hash-join build arena's reservation and, when the
// join spilled, every partition run it still holds, then closes both inputs.
func (j *VecHashJoin) ClosePlan() {
	if j.grace != nil {
		j.grace.close()
		j.grace = nil
	}
	j.jt = nil
	j.grant.Close()
	ClosePlan(j.left)
	ClosePlan(j.right)
}

// close abandons the grace join at any point of its drain: the open run
// reader, half-written partition writers, the live pair's runs and every
// pending pair's. The live pair's reservation goes back with the grant.
func (g *graceJoin) close() {
	if g.rd != nil {
		g.closeReader()
	}
	for _, ws := range [][]*spillRun{g.buildW, g.probeW} {
		for _, w := range ws {
			if w != nil {
				removeRun(w.finish())
			}
		}
	}
	g.buildW, g.probeW, g.cur = nil, nil, nil
	g.dropLive()
	for _, p := range g.pending {
		g.removePair(p)
	}
	g.pending = nil
}

// ClosePlan drops the sort's columns, then closes the input.
func (s *BatchSort) ClosePlan() {
	s.cols = nil
	s.sorted = true // a closed sort must not re-drain its closed input
	s.n, s.pos = 0, 0
	ClosePlan(s.in)
}

// BatchFilter holds no governed state of its own; it only forwards the close
// to its input.
func (f *BatchFilter) ClosePlan() { ClosePlan(f.in) }

// ClosePlan forwards the close to the projected input.
func (p *batchProject) ClosePlan() { ClosePlan(p.in) }
