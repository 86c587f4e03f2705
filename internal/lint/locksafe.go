package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// locksafe enforces the concurrency invariants of the PAS retrieval engine
// and the training runtime:
//
//   - sync.Mutex / sync.RWMutex / sync.WaitGroup / sync.Once / sync.Cond
//     values and sync/atomic typed atomics (atomic.Int64, atomic.Pointer[T],
//     …), or values embedding one, must never be copied — by assignment,
//     argument passing, by-value receivers/params/results, or range. A
//     copied lock or atomic is a fresh, unrelated variable;
//   - every Lock()/RLock() must have a reachable Unlock()/RUnlock() on the
//     same lock expression within the same function (no lock handoffs);
//   - no channel operations, select, WaitGroup.Wait, or time.Sleep while a
//     lock is explicitly held in the same statement sequence (the engine's
//     single-flight protocol depends on never blocking under fmu).
//
// The held-lock scan is an under-approximation: an Unlock in any branch
// releases the lock for the remainder of the scan, so findings are
// high-confidence at the cost of missing some fallthrough paths.
var analyzerLocksafe = &Analyzer{
	Name: "locksafe",
	Doc:  "copied sync primitives and typed atomics, Lock without Unlock, blocking while a lock is held",
	Run:  runLocksafe,
}

func runLocksafe(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkFuncSig(pass, n.Recv, n.Type)
			case *ast.FuncLit:
				checkFuncSig(pass, nil, n.Type)
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					break
				}
				for _, rhs := range n.Rhs {
					if k := copiedKind(pass.Info, rhs); k != "" {
						pass.Reportf(rhs.Pos(), "assignment copies %s value: %s contains %s", copyNoun(k), types.ExprString(rhs), k)
					}
				}
			case *ast.CallExpr:
				for _, arg := range n.Args {
					if k := copiedKind(pass.Info, arg); k != "" {
						pass.Reportf(arg.Pos(), "call copies %s value: argument %s contains %s", copyNoun(k), types.ExprString(arg), k)
					}
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					if k := noCopyKind(pass.Info.TypeOf(n.Value)); k != "" {
						pass.Reportf(n.Value.Pos(), "range copies %s value: element contains %s", copyNoun(k), k)
					}
				}
			}
			return true
		})
	}
	eachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
		if fd.Body == nil {
			return
		}
		checkLockPairs(pass, fd)
		hs := &heldScanner{pass: pass, held: map[string]token.Pos{}}
		hs.stmts(fd.Body.List)
	})
}

// checkFuncSig flags by-value receivers, params, and results whose type
// embeds a sync primitive or a typed atomic.
func checkFuncSig(pass *Pass, recv *ast.FieldList, ftype *ast.FuncType) {
	lists := []*ast.FieldList{recv, ftype.Params, ftype.Results}
	what := []string{"receiver", "parameter", "result"}
	for i, fl := range lists {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			if k := noCopyKind(pass.Info.TypeOf(field.Type)); k != "" {
				pass.Reportf(field.Type.Pos(), "by-value %s contains %s; use a pointer", what[i], k)
			}
		}
	}
}

// copiedKind returns the no-copy kind of e when e names an existing value,
// so that using it copies that value. Fresh values (composite literals,
// function calls) initialize rather than copy, and give "".
func copiedKind(info *types.Info, e ast.Expr) string {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return noCopyKind(info.TypeOf(e))
	}
	return ""
}

// copyNoun names what a copy of the given no-copy kind duplicates.
func copyNoun(kind string) string {
	if strings.HasPrefix(kind, "atomic.") {
		return "atomic"
	}
	return "lock"
}

// syncMethod resolves a call to a method of a sync lock type, returning the
// lock expression key ("s.mu/w") and the method name. RLock/RUnlock get a
// distinct key suffix so read and write pairing stay separate.
func syncMethod(info *types.Info, call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	s, found := info.Selections[sel]
	if !found {
		return "", "", false
	}
	obj := s.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", false
	}
	method = obj.Name()
	kind := "/w"
	if method == "RLock" || method == "RUnlock" {
		kind = "/r"
	}
	return types.ExprString(sel.X) + kind, method, true
}

// checkLockPairs reports Lock/RLock calls with no matching Unlock/RUnlock
// on the same lock expression anywhere in the function (deferred or not).
func checkLockPairs(pass *Pass, fd *ast.FuncDecl) {
	type lockSite struct {
		pos  token.Pos
		name string
	}
	locks := map[string]lockSite{}
	unlocked := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, method, ok := syncMethod(pass.Info, call)
		if !ok {
			return true
		}
		switch method {
		case "Lock", "RLock":
			if _, dup := locks[key]; !dup {
				locks[key] = lockSite{pos: call.Pos(), name: types.ExprString(ast.Unparen(call.Fun).(*ast.SelectorExpr).X)}
			}
		case "Unlock", "RUnlock":
			unlocked[key] = true
		}
		return true
	})
	keys := make([]string, 0, len(locks))
	for k := range locks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !unlocked[k] {
			want := "Unlock"
			if strings.HasSuffix(k, "/r") {
				want = "RUnlock"
			}
			pass.Reportf(locks[k].pos, "%s is locked but never %sed in %s", locks[k].name, want, fd.Name.Name)
		}
	}
}

// heldScanner walks a statement sequence tracking explicitly-held locks and
// flagging blocking operations under them.
type heldScanner struct {
	pass *Pass
	held map[string]token.Pos
}

func (s *heldScanner) stmts(list []ast.Stmt) {
	for _, st := range list {
		s.stmt(st)
	}
}

func (s *heldScanner) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if key, method, ok := syncMethod(s.pass.Info, call); ok {
				switch method {
				case "Lock", "RLock":
					s.held[key] = call.Pos()
					return
				case "Unlock", "RUnlock":
					delete(s.held, key)
					return
				}
			}
		}
		s.check(st)
	case *ast.DeferStmt:
		// Deferred calls run at return; a deferred Unlock releases after
		// every statement below, so it neither blocks now nor releases now.
	case *ast.BlockStmt:
		s.stmts(st.List)
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		s.check(st.Cond)
		s.stmt(st.Body)
		if st.Else != nil {
			s.stmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Cond != nil {
			s.check(st.Cond)
		}
		s.stmt(st.Body)
	case *ast.RangeStmt:
		s.check(st.X)
		s.stmt(st.Body)
	case *ast.SwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		if len(s.held) > 0 {
			s.report(st.Pos(), "select")
		}
	default:
		s.check(st)
	}
}

// check inspects one non-compound statement or expression for blocking
// operations while any lock is held. Function literals are skipped: their
// bodies run elsewhere.
func (s *heldScanner) check(n ast.Node) {
	if len(s.held) == 0 || n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			s.report(n.Pos(), "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				s.report(n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if key, method, ok := syncMethod(s.pass.Info, n); ok && method == "Wait" {
				s.report(n.Pos(), "sync wait on "+key[:len(key)-2])
			}
			if calleePath(s.pass.Info, n) == "time.Sleep" {
				s.report(n.Pos(), "time.Sleep")
			}
		}
		return true
	})
}

func (s *heldScanner) report(pos token.Pos, what string) {
	names := make([]string, 0, len(s.held))
	for k := range s.held {
		names = append(names, strings.TrimSuffix(strings.TrimSuffix(k, "/w"), "/r"))
	}
	sort.Strings(names)
	s.pass.Reportf(pos, "%s while holding %s", what, strings.Join(names, ", "))
}
