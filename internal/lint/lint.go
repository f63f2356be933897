// Package lint is a from-scratch static-analysis engine for this repository,
// built exclusively on the standard library's go/ast, go/parser, go/token and
// go/types packages (no golang.org/x/tools — the module's zero-dependency
// invariant extends to its tooling). It machine-checks the properties the
// codebase otherwise enforces only by convention:
//
//   - bit-identical SIT streams at any parallelism (no map-iteration-order
//     dependent output, no wall-clock or global-randomness inputs),
//   - zero per-row allocation in the batch executor's hot paths,
//   - per-worker scratch isolation across goroutine and fork-join fan-outs,
//   - atomically-accessed fields never touched plainly (atomicmix).
//
// Lifecycles under the shared memory Governor (grants and operator plans
// released on every path) are guarded dynamically, not here: the governed
// tests fail when a drain leaves bytes reserved or spill files behind.
//
// The engine loads every package of the module, type-checks it with a source
// importer, and runs a registry of checks that emit file:line diagnostics.
//
// # Annotation grammar
//
// Three comment directives steer the checks:
//
//	//statcheck:hot                       — marks a function as a hot path:
//	                                        the hotalloc check forbids
//	                                        allocation inside it.
//	//statcheck:scratch                   — marks a type as per-worker
//	                                        scratch: the scratchshare check
//	                                        forbids it from crossing into a
//	                                        spawned goroutine.
//	//statcheck:ignore <check>[,<check>] [reason]
//	                                      — suppresses findings of the named
//	                                        check(s). A trailing comment covers
//	                                        its own line; a comment alone on a
//	                                        line covers the line directly below.
//
// hot and scratch attach to the declaration they document; ignore is
// positional and applies only at its own location, so every suppression is
// visible next to the code it excuses.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding: a position, the check that produced it, and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Check is one registered analysis: a name (used in ignore directives and
// -checks filters), a one-line description, and the function run per package.
type Check struct {
	Name string
	Doc  string
	Run  func(p *Package) []Diagnostic
}

// AllChecks returns the full check registry.
func AllChecks() []Check {
	return []Check{
		checkMapRange(),
		checkHotAlloc(),
		checkRawRand(),
		checkScratchShare(),
		checkDroppedErr(),
		checkAtomicMix(),
	}
}

// Run executes the checks over the packages, drops findings suppressed by
// //statcheck:ignore directives, and returns the survivors sorted by position.
func Run(pkgs []*Package, checks []Check) []Diagnostic {
	var out []Diagnostic
	for _, p := range pkgs {
		for _, c := range checks {
			for _, d := range c.Run(p) {
				if p.suppressed(d) {
					continue
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}
