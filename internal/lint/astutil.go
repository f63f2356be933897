package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// walkStack traverses root depth-first, invoking fn with each node and the
// stack of its ancestors (outermost first, not including the node itself).
// Returning false skips the node's children.
type stackVisitor struct {
	stack []ast.Node
	fn    func(n ast.Node, stack []ast.Node) bool
}

func (v *stackVisitor) Visit(n ast.Node) ast.Visitor {
	if n == nil {
		v.stack = v.stack[:len(v.stack)-1]
		return nil
	}
	if !v.fn(n, v.stack) {
		return nil
	}
	v.stack = append(v.stack, n)
	return v
}

func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	ast.Walk(&stackVisitor{fn: fn}, root)
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// diag builds a diagnostic at the node's position.
func (p *Package) diag(check string, n ast.Node, msg string) Diagnostic {
	return Diagnostic{Pos: p.Fset.Position(n.Pos()), Check: check, Message: msg}
}

// funcName renders a FuncDecl's display name, including a receiver type.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or nil
// for builtins, conversions, and calls of function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// calleeName returns the bare name a call invokes (the selector's name for
// pkg.F and x.M calls), or "" for calls of other expressions.
func calleeName(call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// isConversion reports whether the call expression is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// returnsErrorLast reports whether the call's (possibly multi-valued) result
// ends in an error.
func returnsErrorLast(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && isErrorType(t.At(t.Len()-1).Type())
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// pkgPathOf returns the import path of the object's defining package
// ("" for universe-scope objects).
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// within reports whether pos lies inside the node's source extent.
func within(pos token.Pos, n ast.Node) bool {
	return n.Pos() <= pos && pos < n.End()
}
