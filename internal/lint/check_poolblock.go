package lint

// poolblock: a closure submitted to the worker pool must not itself block on
// pool entry points.
//
// exec.Pool workers are a fixed set; a task that calls ForkJoin (or
// otherwise waits for pool capacity) from inside a worker can deadlock the
// moment every worker is doing the same — the nested-fan-out hazard that
// ForkJoinWidth's caller-participates claim loop exists to dodge: the forker
// claims its own group's morsels from the group's atomic counter instead of
// waiting for a worker to pick its helpers up. The check walks every func
// literal passed to Pool.Submit and flags calls to blocking pool methods on
// any Pool-typed receiver inside it, nested literals included (they may run
// inline on the worker).
//
// The sanctioned shape is invisible to the check by construction:
// ForkJoinWidth submits a method value (Submit(g.runClaims)), which carries
// no literal to inspect, and the claim loop never calls a blocking entry
// point.

import (
	"fmt"
	"go/ast"
)

func checkPoolBlock() Check {
	return Check{
		Name: "poolblock",
		Doc:  "pool-submitted closures must not call blocking pool entry points (ForkJoin/Wait/Close)",
		Run:  runPoolBlock,
	}
}

// poolBlockingNames are the Pool methods that wait for pool capacity or
// quiescence; calling any of them from a pool worker risks deadlock.
var poolBlockingNames = map[string]bool{
	"ForkJoin":      true,
	"ForkJoinWidth": true,
	"Wait":          true,
	"Close":         true,
	"Idle":          true,
}

func runPoolBlock(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Submit" {
				return true
			}
			if !typeNameIs(receiverTypeOf(p, sel), "Pool") {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := unparen(arg).(*ast.FuncLit); ok {
					out = append(out, poolLitBlocking(p, lit)...)
				}
			}
			return true
		})
	}
	return out
}

// poolLitBlocking flags blocking pool calls anywhere inside a submitted
// literal, including nested literals (a worker may invoke them inline).
func poolLitBlocking(p *Package, lit *ast.FuncLit) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !poolBlockingNames[sel.Sel.Name] {
			return true
		}
		if !typeNameIs(receiverTypeOf(p, sel), "Pool") {
			return true
		}
		out = append(out, p.diag("poolblock", call, fmt.Sprintf(
			"pool task calls Pool.%s; blocking on the pool from a worker deadlocks when all workers do — claim the work on the waiting goroutine (like ForkJoinWidth's caller-participates claim loop) or restructure the fan-out",
			sel.Sel.Name)))
		return true
	})
	return out
}
