package lint

// This file is the forward may-reach dataflow solver the lifecycle checks
// (grantleak, planclose) run over the CFGs of cfg.go. It tracks "open
// resource" facts per local variable — a grant opened by Governor.Grant, a
// reservation admitted by Reserve/TryReserve/Force, an operator tree
// returned by PlanBatch — and reports every resource for which SOME path
// reaches the function exit with the fact still open.
//
// The analysis is deliberately intraprocedural and humble about ownership:
//
//   - Paths where the resource is provably absent are pruned: the true
//     branch of `if err != nil` kills facts whose paired error came from the
//     same assignment, `if res == nil` kills on the nil branch, and the
//     failure branch of a TryReserve-style conditional open never gains the
//     reservation.
//   - Ownership visibly leaves the function — the resource is returned,
//     passed as a call argument, copied to another variable, or sent on a
//     channel — the fact is killed: the receiving code is responsible now.
//   - Ownership is stored for later — the resource is placed in a composite
//     literal, assigned to a struct field or map/slice element, or captured
//     by a closure — the fact SURVIVES unless a close call on the resource
//     is visible somewhere in the function (including inside the closure),
//     or the hand-off is declared with a //statcheck:transfers directive.
//     This is the shape the PR-8 grant leaks hid in.
//   - defer is an exit action: deferred close calls (direct or inside a
//     deferred closure) kill at the exit block, whatever the registration
//     order, so `defer ClosePlan(op)` covers every path including panics.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// lcOpen describes one resource-opening call recognized by a lifecycle spec.
type lcOpen struct {
	// kind partitions facts on one variable: "grant" vs "reservation" for
	// grantleak, "plan" for planclose. Close calls kill by kind.
	kind string
	// what is the human noun for diagnostics ("grant", "reservation", ...).
	what string
	// resIsRecv: the tracked resource is the call's receiver (a reservation
	// on an existing grant) rather than the call's first result.
	resIsRecv bool
	// requiresKind: for receiver opens, only track when the receiver already
	// carries a fact of this kind (reservations only on locally-opened
	// grants — reservations on borrowed parameter grants are the caller's).
	requiresKind string
	// conditional: the call reports success as a bool (TryReserve/Reserve);
	// the open happens only on the success branch when the result is
	// branched on.
	conditional bool
}

// lifecycleSpec parameterizes the solver for one check.
type lifecycleSpec struct {
	check string
	// open classifies a call as resource-opening.
	open func(p *Package, call *ast.CallExpr) (lcOpen, bool)
	// closeKinds returns the fact kinds a call closes for resource res
	// (nil/empty = not a close). res is the object the fact is keyed on.
	closeKinds func(p *Package, call *ast.CallExpr, res types.Object) []string
	// leakMsg renders the diagnostic for a leaked fact.
	leakMsg func(f *lcFact) string
}

// lcFact is one open resource bound to a local variable.
type lcFact struct {
	res  types.Object // the variable holding the resource (fact key, with kind)
	kind string
	what string
	err  types.Object // error result of the opening assignment, if any
	ok   types.Object // bool result of a conditional open, if any
	pos  token.Pos    // the opening call, where the leak is reported
	name string       // source name of res, for messages
}

type lcKey struct {
	res  types.Object
	kind string
}

type lcFacts map[lcKey]*lcFact

func (f lcFacts) clone() lcFacts {
	out := make(lcFacts, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// merge unions other into f, reporting whether f grew.
func (f lcFacts) merge(other lcFacts) bool {
	grew := false
	for k, v := range other {
		if _, ok := f[k]; !ok {
			f[k] = v
			grew = true
		}
	}
	return grew
}

// killRes removes every fact (any kind) keyed on res.
func (f lcFacts) killRes(res types.Object) {
	for k := range f {
		if k.res == res {
			delete(f, k)
		}
	}
}

// runLifecycle analyzes every function body of the package — declarations
// and function literals, each as its own intraprocedural scope — and returns
// the leak diagnostics of the spec.
func runLifecycle(p *Package, spec lifecycleSpec) []Diagnostic {
	a := &lifecycleAnalysis{p: p, spec: spec, reported: map[token.Pos]bool{}}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a.analyze(fd.Body)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				a.analyze(lit.Body)
			}
			return true
		})
	}
	sort.Slice(a.out, func(i, j int) bool { return a.out[i].Pos.Offset < a.out[j].Pos.Offset })
	return a.out
}

type lifecycleAnalysis struct {
	p        *Package
	spec     lifecycleSpec
	body     *ast.BlockStmt // the function body being analyzed
	out      []Diagnostic
	reported map[token.Pos]bool // dedup: one diagnostic per opening call
}

func (a *lifecycleAnalysis) report(f *lcFact) {
	if a.reported[f.pos] {
		return
	}
	a.reported[f.pos] = true
	a.out = append(a.out, Diagnostic{
		Pos:     a.p.Fset.Position(f.pos),
		Check:   a.spec.check,
		Message: a.spec.leakMsg(f),
	})
}

// analyze solves the may-reach fixpoint over one function body and reports
// facts still open at exit after the deferred closes run.
func (a *lifecycleAnalysis) analyze(body *ast.BlockStmt) {
	prevBody := a.body
	a.body = body
	defer func() { a.body = prevBody }()

	cfg := buildCFG(body, a.p.Info)
	ins := make([]lcFacts, len(cfg.blocks))
	for i := range ins {
		ins[i] = lcFacts{}
	}
	work := []*cfgBlock{cfg.entry}
	queued := make([]bool, len(cfg.blocks))
	visited := make([]bool, len(cfg.blocks))
	queued[cfg.entry.index] = true
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk.index] = false
		visited[blk.index] = true
		facts := ins[blk.index].clone()
		for _, n := range blk.stmts {
			a.transfer(n, facts)
		}
		// A successor runs when its in-facts grow — or on first reach, so
		// opens seeded deep in the graph execute even under empty facts.
		push := func(succ *cfgBlock, f lcFacts) {
			grew := ins[succ.index].merge(f)
			if (grew || !visited[succ.index]) && !queued[succ.index] {
				queued[succ.index] = true
				work = append(work, succ)
			}
		}
		if blk.cond != nil && len(blk.succs) == 2 {
			// Closes/escapes inside the condition expression apply to both
			// branches; the branch-sensitive gens and kills come after.
			a.applyCallsAndEscapes(blk.cond, facts)
			t, f := facts.clone(), facts.clone()
			a.applyBranch(blk.cond, true, t)
			a.applyBranch(blk.cond, false, f)
			push(blk.succs[0], t)
			push(blk.succs[1], f)
		} else {
			if blk.cond != nil {
				a.applyCallsAndEscapes(blk.cond, facts)
			}
			for _, succ := range blk.succs {
				push(succ, facts)
			}
		}
	}
	// Exit: replay the lexically registered defers as close actions, then
	// report what is still open. A defer registered under a condition is a
	// may-close — the quiet direction for a leak checker.
	exitFacts := ins[cfg.exit.index]
	for _, d := range cfg.defers {
		a.applyCloses(d.Call, exitFacts)
	}
	leaks := make([]*lcFact, 0, len(exitFacts))
	for _, f := range exitFacts {
		leaks = append(leaks, f)
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].pos < leaks[j].pos })
	for _, f := range leaks {
		a.report(f)
	}
}

// transfer applies one statement to the fact set: transfers directives,
// close calls, opening assignments, and escape kills, in that order.
func (a *lifecycleAnalysis) transfer(n ast.Node, facts lcFacts) {
	if d, ok := n.(*ast.DeferStmt); ok {
		// Defers act at exit; their arguments are not escapes either — a
		// deferred non-close call holding the resource would be flagged as a
		// leak, which is the honest answer.
		_ = d
		return
	}
	a.applyTransfersDirective(n, facts)
	a.clearPairings(n, facts)
	a.applyCallsAndEscapes(n, facts)
	a.applyOpens(n, facts)
}

// clearPairings severs err/ok pairings whose variable this statement
// reassigns: after `idx, err := nextStep()`, a later `if err != nil` says
// nothing about the resource opened by the EARLIER call that first bound
// err. Facts are copy-on-write here — the *lcFact pointers are shared
// across block fact-sets, so the paired fact is replaced, never mutated.
func (a *lifecycleAnalysis) clearPairings(n ast.Node, facts lcFacts) {
	var targets []ast.Expr
	switch stmt := n.(type) {
	case *ast.AssignStmt:
		targets = stmt.Lhs
	case *ast.DeclStmt:
		if gd, ok := stmt.Decl.(*ast.GenDecl); ok {
			for _, s := range gd.Specs {
				if vs, ok := s.(*ast.ValueSpec); ok {
					for _, id := range vs.Names {
						targets = append(targets, id)
					}
				}
			}
		}
	default:
		return
	}
	for _, lhs := range targets {
		obj := a.localVar(lhs)
		if obj == nil {
			continue
		}
		for key, f := range facts {
			if f.err == obj || f.ok == obj {
				nf := *f
				if f.err == obj {
					nf.err = nil
				}
				if f.ok == obj {
					nf.ok = nil
				}
				facts[key] = &nf
			}
		}
	}
}

// applyCallsAndEscapes walks the statement (including closure bodies for
// close detection) applying close kills and escape kills.
func (a *lifecycleAnalysis) applyCallsAndEscapes(n ast.Node, facts lcFacts) {
	a.applyCloses(n, facts)
	a.applyEscapes(n, facts)
}

// applyCloses kills fact kinds closed by any call under n, including calls
// inside function literals: a closure that visibly releases the resource is
// the sanctioned hand-off shape (the resource moves to the closure), and
// whether the closure has run by exit is beyond an intraprocedural analysis —
// may-close is the quiet direction.
func (a *lifecycleAnalysis) applyCloses(n ast.Node, facts lcFacts) {
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		for key, f := range facts {
			for _, kind := range a.spec.closeKinds(a.p, call, f.res) {
				if key.kind == kind {
					delete(facts, key)
				}
			}
		}
		return true
	})
}

// applyOpens recognizes statement-level resource-opening calls and binds
// their facts. Only top-level forms are tracked — `x := open(...)`,
// `var x = open(...)`, `x, err := open(...)`, `ok := recv.Open(...)`, and a
// bare `recv.Open(...)` / discarded `open(...)` statement — so chained or
// nested opens stay out of scope (documented limit).
func (a *lifecycleAnalysis) applyOpens(n ast.Node, facts lcFacts) {
	switch stmt := n.(type) {
	case *ast.AssignStmt:
		if len(stmt.Rhs) != 1 {
			return
		}
		call, ok := unparen(stmt.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		a.bindOpen(stmt.Lhs, call, facts)
	case *ast.DeclStmt:
		gd, ok := stmt.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, s := range gd.Specs {
			vs, ok := s.(*ast.ValueSpec)
			if !ok || len(vs.Values) != 1 {
				continue
			}
			call, ok := unparen(vs.Values[0]).(*ast.CallExpr)
			if !ok {
				continue
			}
			lhs := make([]ast.Expr, len(vs.Names))
			for i, id := range vs.Names {
				lhs[i] = id
			}
			a.bindOpen(lhs, call, facts)
		}
	case *ast.ExprStmt:
		call, ok := unparen(stmt.X).(*ast.CallExpr)
		if !ok {
			return
		}
		a.bindOpen(nil, call, facts)
	}
}

// bindOpen applies one recognized open call: facts for receiver opens,
// result-bound opens, and an immediate diagnostic when a created resource is
// discarded outright.
func (a *lifecycleAnalysis) bindOpen(lhs []ast.Expr, call *ast.CallExpr, facts lcFacts) {
	o, ok := a.spec.open(a.p, call)
	if !ok {
		return
	}
	if o.resIsRecv {
		recv := a.receiverObj(call)
		if recv == nil {
			return
		}
		if o.requiresKind != "" {
			if _, held := facts[lcKey{res: recv, kind: o.requiresKind}]; !held {
				return
			}
		}
		f := &lcFact{res: recv, kind: o.kind, what: o.what, pos: call.Pos(), name: recv.Name()}
		if o.conditional && len(lhs) >= 1 {
			if obj := a.localVar(lhs[0]); obj != nil && isBoolType(obj.Type()) {
				f.ok = obj
			}
		}
		facts[lcKey{res: recv, kind: o.kind}] = f
		return
	}
	if len(lhs) == 0 {
		// Created resource discarded at statement position: leaks immediately.
		a.report(&lcFact{kind: o.kind, what: o.what, pos: call.Pos(), name: "result"})
		return
	}
	res := a.localVar(lhs[0])
	if res == nil {
		if id, isIdent := unparen(lhs[0]).(*ast.Ident); isIdent && id.Name == "_" {
			a.report(&lcFact{kind: o.kind, what: o.what, pos: call.Pos(), name: "_"})
		}
		// Bound to a field/index: untracked (the structure owns it now).
		return
	}
	// Rebinding a variable drops whatever it held.
	facts.killRes(res)
	f := &lcFact{res: res, kind: o.kind, what: o.what, pos: call.Pos(), name: res.Name()}
	if last := lhs[len(lhs)-1]; len(lhs) > 1 {
		if obj := a.localVar(last); obj != nil && isErrorType(obj.Type()) {
			f.err = obj
		}
	}
	facts[lcKey{res: res, kind: o.kind}] = f
}

// receiverObj resolves the receiver variable of a method call (`x.M(...)`).
func (a *lifecycleAnalysis) receiverObj(call *ast.CallExpr) types.Object {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := a.p.Info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// localVar resolves an assignment target to the local variable it names.
func (a *lifecycleAnalysis) localVar(e ast.Expr) types.Object {
	id, ok := unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := a.p.Info.Defs[id]; obj != nil {
		return obj
	}
	if v, ok := a.p.Info.Uses[id].(*types.Var); ok && !v.IsField() {
		return v
	}
	return nil
}

// applyEscapes kills facts whose resource visibly leaves the function:
// returned, passed as a call argument, reassigned to another variable, sent
// on a channel, or address-taken. Mentions inside function literals are not
// escapes (the closure shares this function's obligation — see applyCloses),
// and composite-literal / field-store placements deliberately survive: those
// are the hand-off shapes that need an explicit close, a transfers
// directive, or a visible closure release.
func (a *lifecycleAnalysis) applyEscapes(n ast.Node, facts lcFacts) {
	if len(facts) == 0 {
		return
	}
	tracked := map[types.Object]bool{}
	for k := range facts {
		tracked[k.res] = true
	}
	walkStack(n, func(m ast.Node, stack []ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := a.p.Info.Uses[id].(*types.Var)
		if !ok || !tracked[obj] {
			return true
		}
		if a.escapesAt(id, obj, stack) {
			facts.killRes(obj)
			delete(tracked, obj)
		}
		return true
	})
}

// escapesAt classifies one use of a tracked variable given its ancestor
// stack (outermost first).
func (a *lifecycleAnalysis) escapesAt(id *ast.Ident, obj types.Object, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.FuncLit:
			return false // closure capture: obligation stays here
		case *ast.SelectorExpr:
			// x.M(...) receiver or x.field read: not an escape by itself.
			if unparen(parent.X) == id || parent.X == id {
				return false
			}
		case *ast.CallExpr:
			// Argument to a call whose close-kinds didn't already kill it:
			// the callee may take ownership — hand it the obligation.
			for _, arg := range parent.Args {
				if containsIdent(arg, id) {
					return true
				}
			}
			return false
		case *ast.ReturnStmt:
			return true
		case *ast.SendStmt:
			return true
		case *ast.UnaryExpr:
			if parent.Op == token.AND {
				return true
			}
		case *ast.BinaryExpr:
			// Comparisons (nil checks, equality) are reads, not escapes.
			return false
		case *ast.CompositeLit, *ast.KeyValueExpr:
			return false // stored for later: fact survives (see doc above)
		case *ast.IndexExpr:
			return false // m[k] read or element store: fact survives
		case *ast.AssignStmt:
			for _, lhs := range parent.Lhs {
				if containsIdent(lhs, id) {
					return false // reassignment target handled by bindOpen/kill
				}
			}
			// On the RHS. Anything nested (composite literal, call argument)
			// was already classified by an inner ancestor; reaching here means
			// the resource is a direct RHS operand. A copy into a plain
			// variable hands the obligation to the new name; a store into a
			// field or element is "kept for later" and the fact survives.
			for ri, rhs := range parent.Rhs {
				if !containsIdent(rhs, id) {
					continue
				}
				target := ri
				if len(parent.Lhs) != len(parent.Rhs) {
					target = 0
				}
				if target >= len(parent.Lhs) {
					return false
				}
				_, plainVar := unparen(parent.Lhs[target]).(*ast.Ident)
				return plainVar
			}
			return false
		case *ast.RangeStmt, *ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt,
			*ast.TypeSwitchStmt, *ast.CaseClause, *ast.BlockStmt, *ast.ExprStmt:
			return false
		}
	}
	return false
}

// containsIdent reports whether the exact identifier node appears under e.
func containsIdent(e ast.Node, id *ast.Ident) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if n == id {
			found = true
		}
		return !found
	})
	return found
}

// applyBranch prunes facts along one edge of a two-way branch and generates
// conditional opens on their success edge.
func (a *lifecycleAnalysis) applyBranch(cond ast.Expr, taken bool, facts lcFacts) {
	switch e := unparen(cond).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			a.applyBranch(e.X, !taken, facts)
		}
	case *ast.Ident:
		// `if ok` on a conditional open's result: the failure branch never
		// acquired the resource.
		obj, ok := a.p.Info.Uses[e].(*types.Var)
		if !ok {
			return
		}
		for key, f := range facts {
			if f.ok == obj && !taken {
				delete(facts, key)
			}
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			if taken { // both operands true on the taken edge
				a.applyBranch(e.X, true, facts)
				a.applyBranch(e.Y, true, facts)
			}
		case token.LOR:
			if !taken { // both operands false on the fallthrough edge
				a.applyBranch(e.X, false, facts)
				a.applyBranch(e.Y, false, facts)
			}
		case token.EQL, token.NEQ:
			id, isNilCmp := nilComparison(e)
			if !isNilCmp {
				return
			}
			obj, ok := a.p.Info.Uses[id].(*types.Var)
			if !ok {
				return
			}
			// isNilBranch: on this edge, id is known nil.
			isNilBranch := (e.Op == token.EQL) == taken
			for key, f := range facts {
				if f.res == obj && isNilBranch {
					delete(facts, key) // nil resource: nothing to close
				}
				if f.err == obj && !isNilBranch {
					delete(facts, key) // non-nil error: open call failed
				}
			}
		}
	case *ast.CallExpr:
		// `if gr.TryReserve(n)` / (negated, handled above): the reservation
		// exists only on the success edge.
		o, ok := a.spec.open(a.p, e)
		if !ok || !o.conditional || !o.resIsRecv || !taken {
			return
		}
		recv := a.receiverObj(e)
		if recv == nil {
			return
		}
		if o.requiresKind != "" {
			if _, held := facts[lcKey{res: recv, kind: o.requiresKind}]; !held {
				return
			}
		}
		facts[lcKey{res: recv, kind: o.kind}] = &lcFact{
			res: recv, kind: o.kind, what: o.what, pos: e.Pos(), name: recv.Name(),
		}
	}
}

// nilComparison matches `x == nil` / `x != nil` (either operand order) and
// returns the non-nil identifier.
func nilComparison(e *ast.BinaryExpr) (*ast.Ident, bool) {
	x, y := unparen(e.X), unparen(e.Y)
	if isNilIdent(y) {
		if id, ok := x.(*ast.Ident); ok {
			return id, true
		}
	}
	if isNilIdent(x) {
		if id, ok := y.(*ast.Ident); ok {
			return id, true
		}
	}
	return nil, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// applyTransfersDirective kills facts whose variable a //statcheck:transfers
// directive covering this statement's line names — the declared ownership
// hand-off (e.g. a reservation stolen into a spill job).
func (a *lifecycleAnalysis) applyTransfersDirective(n ast.Node, facts lcFacts) {
	if len(facts) == 0 {
		return
	}
	pos := a.p.Fset.Position(n.Pos())
	for key, f := range facts {
		if a.p.transferredAt(pos.Filename, pos.Line, f.name) {
			delete(facts, key)
		}
	}
}

func isBoolType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

// namedType returns the named type of t, unwrapping one pointer.
func namedType(t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// typeNameIs reports whether t (or its pointee) is a named type with the
// given name.
func typeNameIs(t types.Type, name string) bool {
	named := namedType(t)
	return named != nil && named.Obj().Name() == name
}

// firstResultType returns the type of a call's first result, or nil.
func firstResultType(info *types.Info, call *ast.CallExpr) types.Type {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return nil
		}
		return tuple.At(0).Type()
	}
	return tv.Type
}

// hasMethod reports whether t's method set (value or pointer receiver)
// contains a niladic method with the given name.
func hasMethod(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				return true
			}
		}
	}
	return false
}

// leakSuffix renders the shared tail of a lifecycle diagnostic.
func leakSuffix(f *lcFact, closer string) string {
	return fmt.Sprintf("on some path to return; add defer %s.%s(), close it on the early-exit path, or declare the hand-off with //statcheck:transfers %s",
		f.name, closer, f.name)
}
