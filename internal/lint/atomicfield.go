package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// atomicfield guards the memory model around sync/atomic, the exact bug
// class behind the once-racy `dql.Engine.Workers` public field (read
// plainly by callers while worker goroutines updated it): a variable or
// struct field accessed through sync/atomic functions
// (atomic.AddInt64(&x.f, …), atomic.LoadUint32(&x.f), …) anywhere in the
// package must be accessed that way EVERYWHERE — one plain read or write
// next to atomic uses is a data race the race detector only catches when
// the interleaving happens in a test. Copies of typed atomics are
// locksafe's no-copy rule.
var analyzerAtomicfield = &Analyzer{
	Name: "atomicfield",
	Doc:  "mixed atomic/plain access to the same variable",
	Run:  runAtomicfield,
}

// atomicFnPrefixes match the sync/atomic package-level access functions.
var atomicFnPrefixes = []string{"Add", "Load", "Store", "Swap", "CompareAndSwap", "And", "Or"}

// runAtomicfield finds variables touched by sync/atomic calls and reports
// every plain access to the same variable elsewhere in the package.
func runAtomicfield(pass *Pass) {
	// Pass 1: objects accessed atomically, and the ident nodes forming those
	// atomic access expressions (exempt from the plain-access scan).
	atomicAt := map[types.Object]token.Position{}
	atomicSite := map[*ast.Ident]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path := calleePath(pass.Info, call)
			name, ok := strings.CutPrefix(path, "sync/atomic.")
			if !ok || !isAtomicFnName(name) || len(call.Args) == 0 {
				return true
			}
			un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || un.Op != token.AND {
				return true
			}
			id := accessIdent(un.X)
			if id == nil {
				return true
			}
			obj := pass.Info.Uses[id]
			if obj == nil {
				return true
			}
			if _, seen := atomicAt[obj]; !seen {
				atomicAt[obj] = pass.Fset.Position(call.Pos())
			}
			markAccessIdents(un.X, atomicSite)
			return true
		})
	}
	if len(atomicAt) == 0 {
		return
	}
	// Pass 2: plain accesses. Report deterministically by position.
	var plains []*ast.Ident
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || atomicSite[id] {
				return true
			}
			obj := pass.Info.Uses[id]
			if obj == nil {
				return true
			}
			if _, hot := atomicAt[obj]; hot {
				plains = append(plains, id)
			}
			return true
		})
	}
	sort.Slice(plains, func(i, j int) bool { return plains[i].Pos() < plains[j].Pos() })
	for _, id := range plains {
		at := atomicAt[pass.Info.Uses[id]]
		pass.Reportf(id.Pos(), "%s is accessed atomically (e.g. %s:%d) but plainly here; every access must go through sync/atomic", id.Name, shortPath(at.Filename), at.Line)
	}
}

// isAtomicFnName matches AddInt64, LoadUint32, StoreInt32, SwapPointer,
// CompareAndSwapInt64, …
func isAtomicFnName(name string) bool {
	for _, p := range atomicFnPrefixes {
		if rest, ok := strings.CutPrefix(name, p); ok && rest != "" {
			return true
		}
	}
	return false
}

// accessIdent returns the field/variable identifier of an atomic access
// target: f for &f, and f for &x.f (the field, not the receiver).
func accessIdent(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.IndexExpr:
		return accessIdent(e.X)
	}
	return nil
}

// markAccessIdents records every identifier inside an atomic access
// expression, so `&e.workers` does not count e or workers as plain uses.
func markAccessIdents(e ast.Expr, set map[*ast.Ident]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			set[id] = true
		}
		return true
	})
}

// shortPath trims a filename to its final two path segments for messages.
func shortPath(p string) string {
	parts := strings.Split(p, "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return strings.Join(parts, "/")
}
