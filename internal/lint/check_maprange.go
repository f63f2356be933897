package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// mapRangeTargets names the result-producing packages: anything these
// packages emit (histograms, schedules, recommendations, join output) must be
// independent of Go's randomized map iteration order.
var mapRangeTargets = []string{
	"/internal/exec",
	"/internal/sit",
	"/internal/histogram",
	"/internal/sched",
	"/internal/advisor",
}

// checkMapRange flags `for ... range m` over a map in result-producing
// packages. A range is allowed when the loop only feeds slices that are
// sorted later in the same function (the collect-then-sort idiom); anything
// else — in particular loops that emit, accumulate floats, or append to
// output in iteration order — is a finding. Loops whose order is provably
// irrelevant carry a //statcheck:ignore maprange directive.
func checkMapRange() Check {
	return Check{
		Name: "maprange",
		Doc:  "unsorted iteration over a map in a result-producing package",
		Run:  runMapRange,
	}
}

func runMapRange(p *Package) []Diagnostic {
	if !pathTargeted(p.Path, mapRangeTargets) {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sorted := sortedSliceExprs(p, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := p.Info.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if rangeFeedsSortedSlice(p, rs, sorted) {
					return true
				}
				out = append(out, p.diag("maprange", rs,
					"map iterated in nondeterministic order; sort the keys first or append to a slice that is sorted before use"))
				return true
			})
		}
	}
	return out
}

func pathTargeted(path string, targets []string) bool {
	for _, t := range targets {
		if strings.Contains(path, t) {
			return true
		}
	}
	return false
}

// sortedSliceExprs collects the textual form of every expression passed to a
// slice-sorting call (sort.Strings, sort.Slice, ...) in the body, keyed to
// the call's position.
func sortedSliceExprs(p *Package, body *ast.BlockStmt) map[string][]ast.Node {
	out := map[string][]ast.Node{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil {
			return true
		}
		pkg := pkgPathOf(fn)
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		switch fn.Name() {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable",
			"Sort", "SortFunc", "SortStableFunc", "Stable":
			key := types.ExprString(unparen(call.Args[0]))
			out[key] = append(out[key], call)
		}
		return true
	})
	return out
}

// rangeFeedsSortedSlice reports whether the range loop's only writes are
// appends to slices that are sorted after the loop ends.
func rangeFeedsSortedSlice(p *Package, rs *ast.RangeStmt, sorted map[string][]ast.Node) bool {
	appended := map[string]bool{}
	found := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isBuiltin(p.Info, call, "append") {
			return true
		}
		appended[types.ExprString(unparen(as.Lhs[0]))] = true
		found = true
		return true
	})
	if !found {
		return false
	}
	for expr := range appended {
		ok := false
		for _, site := range sorted[expr] {
			if site.Pos() > rs.End() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
