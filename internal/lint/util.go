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

// syncLockNames are the sync types whose by-value copy is always a bug.
var syncLockNames = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Once": true, "Cond": true,
}

// atomicTypeNames are the sync/atomic typed atomics whose copy is a bug.
var atomicTypeNames = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

// noCopyKind returns a description like "sync.Mutex" or "atomic.Int64"
// when a value of type t embeds a sync lock or a typed atomic (directly,
// via struct fields, or via arrays), or "" otherwise. Pointers stop the
// search: copying a pointer to a lock is fine.
func noCopyKind(t types.Type) string {
	return noCopyKindRec(t, map[types.Type]bool{})
}

func noCopyKindRec(t types.Type, seen map[types.Type]bool) string {
	if t == nil || seen[t] {
		return ""
	}
	seen[t] = true
	t = types.Unalias(t)
	if named, ok := t.(*types.Named); ok {
		if obj := named.Obj(); obj.Pkg() != nil {
			switch pkg, name := obj.Pkg().Path(), obj.Name(); {
			case pkg == "sync" && syncLockNames[name]:
				return "sync." + name
			case pkg == "sync/atomic" && atomicTypeNames[name]:
				return "atomic." + name
			}
		}
		return noCopyKindRec(named.Underlying(), seen)
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if k := noCopyKindRec(u.Field(i).Type(), seen); k != "" {
				return k
			}
		}
	case *types.Array:
		return noCopyKindRec(u.Elem(), seen)
	}
	return ""
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

// funcBodies maps every function, method, and closure-valued variable
// declared in the package to its body, so analyzers can look through
// same-package calls (including `run := func() {...}; go run()`).
func funcBodies(info *types.Info, files []*ast.File) map[types.Object]*ast.BlockStmt {
	out := map[types.Object]*ast.BlockStmt{}
	bind := func(name *ast.Ident, rhs ast.Expr) {
		lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
		if !ok {
			return
		}
		if obj := info.Defs[name]; obj != nil {
			out[obj] = lit.Body
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					if obj := info.Defs[n.Name]; obj != nil {
						out[obj] = n.Body
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					if id, ok := lhs.(*ast.Ident); ok {
						bind(id, n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						bind(name, n.Values[i])
					}
				}
			}
			return true
		})
	}
	return out
}

// eachFuncDecl visits every top-level function declaration of the package.
func eachFuncDecl(files []*ast.File, fn func(*ast.FuncDecl)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn(fd)
			}
		}
	}
}
