package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// detpath protects the bit-identical-results contract of the numeric
// packages (internal/tensor, internal/dnn, internal/pas): the GEMM kernels
// and parallel enumeration are bit-exact at any worker count precisely
// because accumulation order is fixed, and Go randomizes map iteration
// order. It reports the three ways that order leaks out of a
// map-range body:
//
//   - float accumulation: `+=`-style (or x = x + v) updates of a float
//     declared outside the loop — float addition does not commute in
//     rounding, so the sum depends on iteration order. Closures inside the
//     body count, since they run in that order too;
//   - ordered sinks: writing to an outer strings.Builder / bytes.Buffer /
//     io.Writer (or fmt.Fprint* to one) emits in iteration order — no
//     later fix-up is possible, so it is reported at the write;
//   - unsorted key/value collection: appending to an outer slice taints
//     the slice with iteration order. The taint is killed by a sort call
//     (sort.* / slices.Sort*) naming the slice. A CFG path on which the
//     tainted slice reaches a `return` or is itself ranged over (the
//     classic collect-keys-then-iterate pattern, minus the sort) is
//     reported.
//
// The fix in every case is to iterate sorted keys.
var analyzerDetpath = &Analyzer{
	Name: "detpath",
	Doc:  "map-iteration order escaping via float accumulation, unsorted collected slices or ordered sinks in the deterministic packages",
	Run:  runDetpath,
}

// detPackages are the package paths (relative to the module) under the
// determinism contract.
var detPackages = []string{"/internal/tensor", "/internal/dnn", "/internal/pas"}

func runDetpath(pass *Pass) {
	if !slices.ContainsFunc(detPackages, func(suf string) bool { return strings.HasSuffix(pass.Path, suf) }) {
		return
	}
	eachFunc(pass.Files, func(_ *ast.FuncDecl, _ *ast.FuncLit, body *ast.BlockStmt) {
		checkDetpathBody(pass, body)
	})
}

// taintSource is one append-into-outer-slice site inside a map-range body.
type taintSource struct {
	assign *ast.AssignStmt
	pos    token.Pos
	name   string
}

func checkDetpathBody(pass *Pass, body *ast.BlockStmt) {
	taints := map[types.Object]taintSource{}
	inspectSkippingFuncLits(body, func(n ast.Node) {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !isMapRange(pass.Info, rng) {
			return
		}
		checkFloatAccum(pass, rng)
		inspectSkippingFuncLits(rng.Body, func(m ast.Node) {
			switch m := m.(type) {
			case *ast.AssignStmt:
				collectAppendTaint(pass, rng, m, taints)
			case *ast.CallExpr:
				checkOrderedSink(pass, rng, m)
			}
		})
	})
	if len(taints) == 0 {
		return
	}
	cfg := buildCFG(body)
	apply := func(n ast.Node, facts objSet) {
		ast.Inspect(n, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			if as, ok := x.(*ast.AssignStmt); ok {
				for obj, t := range taints {
					if t.assign == as {
						facts[obj] = true
					}
				}
			}
			if call, ok := x.(*ast.CallExpr); ok && isSortCall(pass.Info, call) {
				for obj := range taints {
					if callMentionsObj(pass.Info, call, obj) {
						delete(facts, obj)
					}
				}
			}
			return true
		})
	}
	visit := func(n ast.Node, facts objSet) {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for obj := range facts {
				if mentionsObj(pass.Info, n, obj) {
					t := taints[obj]
					pass.Reportf(n.Pos(), "%s collects map keys/values in iteration order (append at line %d) and reaches this return unsorted; sort it for bit-identical results", t.name, pass.Fset.Position(t.pos).Line)
				}
			}
		case ast.Expr:
			// Range heads record their X expression; ranging over a tainted
			// slice replays map order.
			if id := identFor(n); id != nil {
				if obj := pass.Info.Uses[id]; obj != nil && facts[obj] {
					if isRangeHead(pass.Info, id) {
						t := taints[obj]
						pass.Reportf(n.Pos(), "range over %s replays map iteration order (append at line %d); sort it first for bit-identical results", t.name, pass.Fset.Position(t.pos).Line)
					}
				}
			}
		}
	}
	forwardFlow(cfg, apply, visit)
}

// isMapRange reports whether the range statement iterates a map.
func isMapRange(info *types.Info, rng *ast.RangeStmt) bool {
	t := info.TypeOf(rng.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// collectAppendTaint records `x = append(x, ...)` where x is a slice
// declared outside the map-range statement.
func collectAppendTaint(pass *Pass, rng *ast.RangeStmt, as *ast.AssignStmt, taints map[types.Object]taintSource) {
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
			continue
		}
		id := identFor(as.Lhs[i])
		if id == nil || id.Name == "_" {
			continue
		}
		obj := objOf(pass.Info, id)
		if obj == nil {
			continue
		}
		if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
			continue // loop-local collection never escapes an iteration
		}
		if _, seen := taints[obj]; !seen {
			taints[obj] = taintSource{assign: as, pos: as.Pos(), name: id.Name}
		}
	}
}

// orderedSinkRecvs are receiver types whose writes emit in call order.
var orderedSinkRecvs = map[string]bool{
	"strings.Builder": true,
	"bytes.Buffer":    true,
}

// checkOrderedSink flags writes to an outer ordered sink inside a map-range
// body.
func checkOrderedSink(pass *Pass, rng *ast.RangeStmt, call *ast.CallExpr) {
	outer := func(e ast.Expr) bool {
		root := rootIdent(e)
		if root == nil {
			return false
		}
		obj := objOf(pass.Info, root)
		return obj != nil && (obj.Pos() < rng.Pos() || obj.Pos() >= rng.End())
	}
	if r := recvNamed(pass.Info, call); orderedSinkRecvs[r] {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if ok && strings.HasPrefix(sel.Sel.Name, "Write") && outer(sel.X) {
			pass.Reportf(call.Pos(), "write to %s inside a map range emits in iteration order; iterate sorted keys", types.ExprString(sel.X))
		}
		return
	}
	if path := calleePath(pass.Info, call); strings.HasPrefix(path, "fmt.Fprint") && len(call.Args) > 0 && outer(call.Args[0]) {
		pass.Reportf(call.Pos(), "%s to %s inside a map range emits in iteration order; iterate sorted keys", path, types.ExprString(call.Args[0]))
	}
}

// isSortCall reports whether the call is a sort.* or slices.Sort* ordering
// call.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	path := calleePath(info, call)
	return strings.HasPrefix(path, "sort.") || strings.HasPrefix(path, "slices.Sort")
}

// callMentionsObj reports whether any call argument references obj.
func callMentionsObj(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	for _, a := range call.Args {
		if mentionsObj(info, a, obj) {
			return true
		}
	}
	return false
}

// isRangeHead reports whether the identifier is the X of a range statement.
// The CFG records range heads as bare expressions, so the ident's immediate
// role is recovered from the expression itself: detpath passes only nodes
// recorded by the builder, and a bare expression node that IS the ident can
// only have come from a range head or a condition; conditions over slices
// don't type-check, so the ident's slice type suffices.
func isRangeHead(info *types.Info, id *ast.Ident) bool {
	t := info.TypeOf(id)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// checkFloatAccum flags float accumulation into loop-external variables
// inside a map-range body, closures included.
func checkFloatAccum(pass *Pass, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			reportIfFloatAccum(pass, rng, as.Lhs[0])
		case token.ASSIGN:
			// x = x + v style accumulation.
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				if bin, ok := ast.Unparen(as.Rhs[i]).(*ast.BinaryExpr); ok && exprMentions(bin, lhs) {
					reportIfFloatAccum(pass, rng, lhs)
				}
			}
		}
		return true
	})
}

// reportIfFloatAccum reports when lhs is a float lvalue rooted at a
// variable declared outside the range statement.
func reportIfFloatAccum(pass *Pass, rng *ast.RangeStmt, lhs ast.Expr) {
	t := pass.Info.TypeOf(lhs)
	basic, ok := t.(*types.Basic)
	if !ok || basic.Info()&types.IsFloat == 0 {
		return
	}
	root := rootIdent(lhs)
	if root == nil {
		return
	}
	obj := objOf(pass.Info, root)
	if obj == nil || obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
		return // unresolved, or a loop-local accumulator: reset each iteration, order-free
	}
	pass.Reportf(lhs.Pos(), "float accumulation into %s under map iteration order; iterate sorted keys for bit-identical results", types.ExprString(lhs))
}

// rootIdent returns the base identifier of an lvalue (x, x.f, x[i], *x).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X // &x roots at x
		default:
			return nil
		}
	}
}

// exprMentions reports whether the expression tree contains a sub-expression
// textually identical to target.
func exprMentions(e ast.Expr, target ast.Expr) bool {
	want := types.ExprString(target)
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if sub, ok := n.(ast.Expr); ok && types.ExprString(sub) == want {
			found = true
		}
		return !found
	})
	return found
}
