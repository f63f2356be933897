package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// checkScratchShare enforces per-worker scratch isolation: values of a
// scratch type (annotated //statcheck:scratch, or any named type whose name
// contains "scratch") must not be captured by or passed into a goroutine
// launched with `go`, nor into a closure handed to exec.ForkJoin — every
// worker forks its own. Sync primitives copied by value are go vet's
// copylocks check, not this one.
func checkScratchShare() Check {
	return Check{
		Name: "scratchshare",
		Doc:  "per-worker scratch escaping into a goroutine or fork-join closure",
		Run:  runScratchShare,
	}
}

func runScratchShare(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.GoStmt:
				out = append(out, goStmtScratch(p, node)...)
			case *ast.CallExpr:
				out = append(out, forkJoinScratch(p, node)...)
			}
			return true
		})
	}
	return out
}

// goStmtScratch flags scratch-typed variables that cross into a spawned
// goroutine, either as call arguments or as free variables of a closure.
func goStmtScratch(p *Package, g *ast.GoStmt) []Diagnostic {
	var out []Diagnostic
	for _, arg := range g.Call.Args {
		if t := p.Info.TypeOf(arg); t != nil && p.isScratchType(t) {
			out = append(out, p.diag("scratchshare", arg, fmt.Sprintf(
				"per-worker scratch %s passed into a goroutine; fork a private scratch inside the worker instead",
				types.ExprString(arg))))
		}
	}
	if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
		out = append(out, closureScratchCaptures(p, lit, "goroutine")...)
	}
	return out
}

// forkJoinScratch applies the goroutine rule to closures handed to
// ForkJoin: the func literal runs on the caller and on helper goroutines at
// once, so scratch captured from the enclosing scope would be shared across
// concurrent calls.
func forkJoinScratch(p *Package, call *ast.CallExpr) []Diagnostic {
	if calleeName(call) != "ForkJoin" {
		return nil
	}
	var out []Diagnostic
	for _, arg := range call.Args {
		if lit, ok := unparen(arg).(*ast.FuncLit); ok {
			out = append(out, closureScratchCaptures(p, lit, "fork-join")...)
		}
	}
	return out
}

// closureScratchCaptures flags scratch-typed free variables of a worker
// closure; variables declared inside the literal are private and fine.
func closureScratchCaptures(p *Package, lit *ast.FuncLit, context string) []Diagnostic {
	var out []Diagnostic
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := p.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || seen[obj] {
			return true
		}
		if within(obj.Pos(), lit) {
			return true // declared inside the worker: private
		}
		if p.isScratchType(obj.Type()) {
			seen[obj] = true
			out = append(out, p.diag("scratchshare", id, fmt.Sprintf(
				"per-worker scratch %q captured by a %s closure; declare it inside the worker", id.Name, context)))
		}
		return true
	})
	return out
}

// isScratchType reports whether t (or its pointee) is a scratch type: either
// annotated //statcheck:scratch in this package, or named like one.
func (p *Package) isScratchType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if p.Scratch[named.Obj()] {
		return true
	}
	return strings.Contains(strings.ToLower(named.Obj().Name()), "scratch")
}
