package lint

import (
	"go/ast"
	"go/types"
)

// errorIface is the built-in error interface, for implements checks.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is (or implements) the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) || types.Identical(t, errorIface)
}

// calleeObj resolves the object a call invokes: a *types.Func for direct
// function and method calls, a *types.Builtin for builtins, nil for
// indirect calls through function values.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel] // package-qualified call
	}
	return nil
}

// calleePath returns "pkgpath.Name" for a call to a package-level function
// of a stdlib/module package, or "" when unresolvable. Methods are
// deliberately excluded — (http.Header).Get must not alias net/http.Get —
// and resolve through recvNamed instead.
func calleePath(info *types.Info, call *ast.CallExpr) string {
	obj := calleeObj(info, call)
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return ""
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvNamed returns the named type of a method call's receiver, following
// one pointer indirection ("bytes.Buffer" for (*bytes.Buffer).Write).
func recvNamed(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s, ok := info.Selections[sel]
	if !ok {
		return ""
	}
	t := s.Recv()
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return ""
}
