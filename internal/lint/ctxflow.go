package lint

import (
	"go/ast"
	"go/types"
)

// ctxflow guards context plumbing on the handler and client paths that the
// service arc rides on. A function that already holds a request context —
// a context.Context parameter, or an *http.Request parameter (the carrier
// of one) — must not:
//
//   - mint a fresh root with context.Background() or context.TODO(): a
//     downstream call chained off the fresh root outlives cancellation and
//     deadlines of the request that spawned it;
//   - call context-oblivious blocking I/O (http.Get/Post/Head helpers,
//     Client.Get-style helper methods, net.Dial, http.NewRequest): the
//     request's cancellation can never reach the blocked call. Use
//     http.NewRequestWithContext / net.Dialer.DialContext and plumb the
//     context through.
//
// Functions without a context in scope are exempt — there is nothing to
// plumb; growing a ctx parameter is an API decision, not a lint fix.
var analyzerCtxflow = &Analyzer{
	Name: "ctxflow",
	Doc:  "context.Background()/blocking no-ctx I/O inside functions that already hold a request context",
	Run:  runCtxflow,
}

// ctxOblivious maps package-level callees to the ctx-aware replacement.
var ctxOblivious = map[string]string{
	"net/http.Get":        "http.NewRequestWithContext + Client.Do",
	"net/http.Post":       "http.NewRequestWithContext + Client.Do",
	"net/http.PostForm":   "http.NewRequestWithContext + Client.Do",
	"net/http.Head":       "http.NewRequestWithContext + Client.Do",
	"net/http.NewRequest": "http.NewRequestWithContext",
	"net.Dial":            "net.Dialer.DialContext",
	"net.DialTimeout":     "net.Dialer.DialContext",
}

// ctxObliviousClientMethods are (*http.Client) helper methods without a ctx
// parameter.
var ctxObliviousClientMethods = map[string]bool{
	"Get": true, "Post": true, "PostForm": true, "Head": true,
}

func runCtxflow(pass *Pass) {
	eachFunc(pass.Files, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
		carrier := ctxCarrier(pass.Info, decl, lit)
		if carrier == "" && lit != nil && decl != nil {
			// A literal with no context parameter of its own can still reach
			// the enclosing declaration's context lexically.
			carrier = ctxCarrier(pass.Info, decl, nil)
		}
		if carrier == "" {
			return
		}
		inspectSkippingFuncLits(body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			path := calleePath(pass.Info, call)
			switch path {
			case "context.Background", "context.TODO":
				pass.Reportf(call.Pos(), "%s inside a function holding a request context; derive from %s so cancellation propagates", path, carrier)
				return
			}
			if fix, bad := ctxOblivious[path]; bad {
				pass.Reportf(call.Pos(), "%s ignores the in-scope request context (%s); use %s", path, carrier, fix)
				return
			}
			if recvNamed(pass.Info, call) == "net/http.Client" {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && ctxObliviousClientMethods[sel.Sel.Name] {
					pass.Reportf(call.Pos(), "(*http.Client).%s ignores the in-scope request context (%s); use http.NewRequestWithContext + Client.Do", sel.Sel.Name, carrier)
				}
			}
		})
	})
}

// ctxCarrier reports how the function can reach a request context: the name
// of a context.Context parameter, "<req>.Context()" for an *http.Request
// parameter, or "" when it holds neither.
func ctxCarrier(info *types.Info, decl *ast.FuncDecl, lit *ast.FuncLit) string {
	var ftype *ast.FuncType
	if lit != nil {
		ftype = lit.Type
	} else {
		ftype = decl.Type
	}
	if ftype.Params == nil {
		return ""
	}
	for _, f := range ftype.Params.List {
		t := info.TypeOf(f.Type)
		if t == nil {
			continue
		}
		if isContextType(t) {
			if len(f.Names) > 0 && f.Names[0].Name != "_" {
				return f.Names[0].Name
			}
			continue // an ignored ctx param cannot be plumbed
		}
		if isHTTPRequestPtr(t) && len(f.Names) > 0 && f.Names[0].Name != "_" {
			return f.Names[0].Name + ".Context()"
		}
	}
	return ""
}

// isContextType matches context.Context.
func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isHTTPRequestPtr matches *net/http.Request.
func isHTTPRequestPtr(t types.Type) bool {
	p, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(p.Elem()).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}
