package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goroleak enforces the goroutine discipline of the training and retrieval
// runtimes and guards goroutine cardinality on the service arc. Every `go` statement is checked twice, on one resolution of
// the goroutine body (its function literal, or the same-package function
// or closure variable it calls):
//
//	body — in <module>/internal/, the body must touch a sync.WaitGroup,
//	operate on a channel, close one, or select; otherwise nothing can join
//	or bound it. A body that cannot be resolved is reported too;
//
//	launch site — a goroutine launched per request or per loop iteration
//	multiplies under load, so its launch SCOPE must carry a visible bound
//	or join. The trigger: the `go` statement sits inside a for/range body,
//	or inside a handler-shaped function (http.ResponseWriter /
//	*http.Request parameter or a ServeHTTP method), where every request
//	replays the launch. Bound evidence (any one clears the launch):
//	  - a sync.WaitGroup Wait (or deferred Wait) CFG-reachable from the
//	    launch block — the scope joins what it spawned;
//	  - a channel receive, channel range, or select CFG-reachable from the
//	    launch block — the scope collects results or completion signals;
//	  - a channel send reaching the launch (forward dataflow) — the
//	    acquire-token half of a buffered-channel semaphore caps concurrency;
//	  - the goroutine body ranges over a channel or selects — a
//	    worker-pool member bounded by channel close, not by the launch
//	    count.
var analyzerGoroleak = &Analyzer{
	Name: "goroleak",
	Doc:  "goroutine launches whose body nothing can join, or whose loop/request scope has no reachable join, semaphore, or pool bound",
	Run:  runGoroleak,
}

func runGoroleak(pass *Pass) {
	bodies := funcBodies(pass.Info, pass.Files)
	library := pass.InLibrary()
	eachFunc(pass.Files, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
		var goStmts []*ast.GoStmt
		inLoop := map[*ast.GoStmt]bool{}
		markLoopGoStmts(body, false, &goStmts, inLoop)
		if len(goStmts) == 0 {
			return
		}
		handler := isHandlerShaped(pass.Info, decl, lit)
		var cfg *CFG
		for _, g := range goStmts {
			gbody := goroutineBody(pass.Info, g, bodies)
			if library {
				switch {
				case gbody == nil:
					pass.Reportf(g.Pos(), "goroutine launch whose body cannot be inspected; tie it to a WaitGroup or bounded pool")
				case !usesCompletionMechanism(pass.Info, gbody):
					pass.Reportf(g.Pos(), "bare goroutine launch: body uses no WaitGroup, channel, or select, so nothing can join or bound it")
				}
			}
			if !inLoop[g] && !handler || isPoolWorker(pass.Info, gbody) {
				continue
			}
			if cfg == nil {
				cfg = buildCFG(body)
			}
			if launchScopeBounds(pass.Info, cfg, g) {
				continue
			}
			scope := "loop"
			if !inLoop[g] {
				scope = "request"
			}
			pass.Reportf(g.Pos(), "goroutine launched in %s scope with no visible bound: no reachable WaitGroup.Wait, channel receive, or semaphore, and the body is not a channel-draining worker", scope)
		}
	})
}

// goroutineBody resolves the body a `go` statement runs: its function
// literal, or the body of the same-package function or closure variable it
// calls (`run := func() {...}; go run()`). It returns nil when the callee
// cannot be resolved.
func goroutineBody(info *types.Info, g *ast.GoStmt, bodies map[types.Object]*ast.BlockStmt) *ast.BlockStmt {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if obj := calleeObj(info, g.Call); obj != nil {
		return bodies[obj]
	}
	return nil
}

// usesCompletionMechanism looks for any WaitGroup method call, channel
// operation, select, or close() in the body.
func usesCompletionMechanism(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			found = isChanRange(info, n)
		case *ast.CallExpr:
			if recvNamed(info, n) == "sync.WaitGroup" {
				found = true
			}
			if b, ok := calleeObj(info, n).(*types.Builtin); ok && b.Name() == "close" {
				found = true
			}
		}
		return !found
	})
	return found
}

// isChanRange reports whether the range statement drains a channel.
func isChanRange(info *types.Info, rng *ast.RangeStmt) bool {
	t := info.TypeOf(rng.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// markLoopGoStmts collects the go statements of a body (nested literals
// excluded — they are analyzed as their own bodies) and whether each sits
// inside a for/range statement.
func markLoopGoStmts(n ast.Node, loop bool, out *[]*ast.GoStmt, inLoop map[*ast.GoStmt]bool) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.FuncLit:
		return
	case *ast.GoStmt:
		*out = append(*out, n)
		inLoop[n] = loop
		return // the launch call's args may contain literals; skip them
	case *ast.ForStmt:
		markLoopGoStmts(n.Body, true, out, inLoop)
		return
	case *ast.RangeStmt:
		markLoopGoStmts(n.Body, true, out, inLoop)
		return
	}
	// Generic recursion one level down.
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		switch c.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.ForStmt, *ast.RangeStmt:
			markLoopGoStmts(c, loop, out, inLoop)
			return false
		}
		return true
	})
}

// isHandlerShaped reports whether the function is on the request path: it
// has an http.ResponseWriter or *http.Request parameter (declaration or
// literal), or is a ServeHTTP method.
func isHandlerShaped(info *types.Info, decl *ast.FuncDecl, lit *ast.FuncLit) bool {
	var ftype *ast.FuncType
	if lit != nil {
		ftype = lit.Type
	} else {
		ftype = decl.Type
		if decl.Name.Name == "ServeHTTP" && decl.Recv != nil {
			return true
		}
	}
	if ftype.Params == nil {
		return false
	}
	for _, f := range ftype.Params.List {
		if isHTTPParam(info.TypeOf(f.Type)) {
			return true
		}
	}
	return false
}

// isHTTPParam matches net/http.ResponseWriter and *net/http.Request.
func isHTTPParam(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "net/http" {
		return false
	}
	return obj.Name() == "ResponseWriter" || obj.Name() == "Request"
}

// isPoolWorker reports whether the goroutine body drains a channel or
// selects — a pool worker bounded by channel close rather than launch
// count.
func isPoolWorker(info *types.Info, body *ast.BlockStmt) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			found = isChanRange(info, n)
		}
		return !found
	})
	return found
}

// launchScopeBounds reports whether the launching scope bounds the
// goroutine: a WaitGroup Wait / channel receive reachable from the launch
// block, a deferred Wait anywhere, or a semaphore send reaching the launch.
func launchScopeBounds(info *types.Info, cfg *CFG, g *ast.GoStmt) bool {
	// Deferred joins cover every exit, wherever the launch sits.
	for _, d := range cfg.Defers {
		if nodeHasJoin(info, d) {
			return true
		}
	}
	goBlock := cfg.BlockOf(g)
	if goBlock != nil {
		for b := range cfg.ReachableFrom(goBlock) {
			for _, n := range b.Nodes {
				if n == g {
					continue
				}
				if nodeHasJoin(info, n) {
					return true
				}
			}
		}
	}
	// Semaphore acquire: a channel send on some path into the launch.
	return reachingBefore(cfg, g,
		func(n ast.Node) bool { return nodeHasSend(n) },
		nil)
}

// nodeHasJoin reports whether the node (outside nested literals) waits on a
// WaitGroup or receives from / selects on a channel.
func nodeHasJoin(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			found = isChanRange(info, x)
		case *ast.CallExpr:
			if recvNamed(info, x) == "sync.WaitGroup" {
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// nodeHasSend reports whether the node (outside nested literals) performs a
// channel send.
func nodeHasSend(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		switch x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			found = true
		}
		return !found
	})
	return found
}
