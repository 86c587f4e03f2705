package lint

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// cfgOf builds the CFG of the named top-level function of a fixture.
func cfgOf(t *testing.T, pkg *Package, name string) *CFG {
	t.Helper()
	var body *ast.BlockStmt
	eachFunc(pkg.Files, func(fd *ast.FuncDecl, lit *ast.FuncLit, b *ast.BlockStmt) {
		if lit == nil && fd.Name.Name == name {
			body = b
		}
	})
	if body == nil {
		t.Fatalf("fixture has no function %s", name)
	}
	return buildCFG(body)
}

// reachableFrom returns the set of blocks reachable from b, including b
// itself.
func reachableFrom(b *Block) map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(x *Block) {
		if seen[x] {
			return
		}
		seen[x] = true
		for _, s := range x.Succs {
			walk(s)
		}
	}
	walk(b)
	return seen
}

// entryReaches returns the blocks reachable from the entry.
func entryReaches(c *CFG) map[*Block]bool {
	return reachableFrom(c.Blocks[0])
}

// factReaches runs forwardFlow with one fact, genned where gen holds and
// killed where kill holds, and reports whether it is live before target.
func factReaches(c *CFG, target ast.Node, gen, kill func(ast.Node) bool) bool {
	fact := types.NewLabel(0, nil, "fact")
	found := false
	forwardFlow(c,
		func(n ast.Node, facts objSet) {
			if kill(n) {
				delete(facts, fact)
			}
			if gen(n) {
				facts[fact] = true
			}
		},
		func(n ast.Node, facts objSet) {
			if n == target && facts[fact] {
				found = true
			}
		})
	return found
}

// findNode returns the first recorded node satisfying pred and its block.
func findNode(c *CFG, pred func(ast.Node) bool) (ast.Node, *Block) {
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			if pred(n) {
				return n, b
			}
		}
	}
	return nil, nil
}

const cfgFixture = `package fix

func cond(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func loop(xs []int) int {
	s := 0
	for i := 0; i < len(xs); i++ {
		s += xs[i]
	}
	return s
}

func afterReturn() int {
	return 1
	goto done // unreachable, and a backward-less goto target below
done:
	return 2
}

func gotoLoop(n int) int {
	i := 0
again:
	if i < n {
		i++
		goto again
	}
	return i
}

func fallth(n int) string {
	switch n {
	case 0:
		fallthrough
	case 1:
		return "small"
	default:
		return "big"
	}
}

func deferInLoop(files []string) {
	for _, f := range files {
		defer println(f)
	}
	defer println("outer")
}

func sel(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

func panics(v bool) int {
	if v {
		panic("boom")
	}
	return 0
}
`

func TestCFGShapes(t *testing.T) {
	pkg := loadFixture(t, "modelhub/internal/fix", cfgFixture)

	t.Run("if-else both reach exit", func(t *testing.T) {
		c := cfgOf(t, pkg, "cond")
		if !entryReaches(c)[c.Exit] {
			t.Fatal("exit not reachable from entry")
		}
		// Both returns must sit in blocks reaching the exit.
		n := 0
		for _, b := range c.Blocks {
			for _, node := range b.Nodes {
				if _, ok := node.(*ast.ReturnStmt); ok {
					n++
					if !entryReaches(c)[b] {
						t.Fatal("return in unreachable block")
					}
				}
			}
		}
		if n != 2 {
			t.Fatalf("recorded %d returns, want 2", n)
		}
	})

	t.Run("for loop has back edge", func(t *testing.T) {
		c := cfgOf(t, pkg, "loop")
		_, body := findNode(c, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			return ok && len(as.Lhs) == 1 && ast.Unparen(as.Lhs[0]).(*ast.Ident).Name == "s" && as.Tok.String() == "+="
		})
		if body == nil {
			t.Fatal("loop body statement not recorded")
		}
		// The body must be able to reach itself again (head -> body cycle).
		if !reachableFrom(body)[body] || len(reachableFrom(body)) < 2 {
			t.Fatal("no back edge: loop body cannot re-reach itself")
		}
	})

	t.Run("code after return is unreachable", func(t *testing.T) {
		c := cfgOf(t, pkg, "afterReturn")
		node, blk := findNode(c, func(n ast.Node) bool {
			br, ok := n.(*ast.BranchStmt)
			return ok && br.Tok.String() == "goto"
		})
		if node == nil {
			t.Fatal("goto not recorded")
		}
		if entryReaches(c)[blk] {
			t.Fatal("statement after return should be unreachable from entry")
		}
	})

	t.Run("backward goto forms a cycle", func(t *testing.T) {
		c := cfgOf(t, pkg, "gotoLoop")
		_, inc := findNode(c, func(n ast.Node) bool {
			_, ok := n.(*ast.IncDecStmt)
			return ok
		})
		if inc == nil {
			t.Fatal("i++ not recorded")
		}
		if !reachableFrom(inc)[inc] {
			t.Fatal("goto again does not loop back")
		}
		if !entryReaches(c)[c.Exit] {
			t.Fatal("exit unreachable")
		}
	})

	t.Run("fallthrough chains cases", func(t *testing.T) {
		c := cfgOf(t, pkg, "fallth")
		lit0, b0 := findNode(c, func(n ast.Node) bool {
			bl, ok := n.(*ast.BasicLit)
			return ok && bl.Value == "0"
		})
		_, ret := findNode(c, func(n ast.Node) bool {
			r, ok := n.(*ast.ReturnStmt)
			return ok && len(r.Results) == 1 && strings.Contains(astString(r.Results[0]), "small")
		})
		if lit0 == nil || ret == nil {
			t.Fatal("case label or return not recorded")
		}
		if !reachableFrom(b0)[ret] {
			t.Fatal("fallthrough edge missing: case 0 cannot reach case 1 body")
		}
	})

	t.Run("defer in loop recorded", func(t *testing.T) {
		c := cfgOf(t, pkg, "deferInLoop")
		var blocks []*Block
		for _, b := range c.Blocks {
			for _, n := range b.Nodes {
				if _, ok := n.(*ast.DeferStmt); ok {
					blocks = append(blocks, b)
				}
			}
		}
		if len(blocks) != 2 {
			t.Fatalf("recorded %d defers, want 2 (loop + outer)", len(blocks))
		}
		if !reachableFrom(blocks[0])[blocks[1]] {
			t.Fatal("outer defer unreachable from the loop's defer")
		}
	})

	t.Run("select clauses all reach exit", func(t *testing.T) {
		c := cfgOf(t, pkg, "sel")
		n := 0
		for _, b := range c.Blocks {
			for _, node := range b.Nodes {
				if _, ok := node.(*ast.ReturnStmt); ok {
					n++
					if !entryReaches(c)[b] {
						t.Fatal("select clause unreachable")
					}
				}
			}
		}
		if n != 2 {
			t.Fatalf("recorded %d returns in select, want 2", n)
		}
	})

	t.Run("panic terminates", func(t *testing.T) {
		c := cfgOf(t, pkg, "panics")
		node, blk := findNode(c, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return false
			}
			call, ok := es.X.(*ast.CallExpr)
			return ok && isPanicCall(call)
		})
		if node == nil {
			t.Fatal("panic not recorded")
		}
		reach := reachableFrom(blk)
		for b := range reach {
			for _, n := range b.Nodes {
				if r, ok := n.(*ast.ReturnStmt); ok {
					t.Fatalf("panic block reaches return %v", r)
				}
			}
		}
	})
}

func astString(n ast.Node) string {
	if bl, ok := n.(*ast.BasicLit); ok {
		return bl.Value
	}
	return ""
}

// TestCFGNoPanicOnHardSyntax builds a CFG for every function of a fixture
// exercising generics, method values, defer in loops, labeled breaks, and
// nested literals — the shapes most likely to trip an AST-walking builder.
func TestCFGNoPanicOnHardSyntax(t *testing.T) {
	pkg := loadFixture(t, "modelhub/internal/fix", `package fix

import "sort"

// Map is a generic helper with its own control flow.
func Map[T any, U any](xs []T, f func(T) U) []U {
	out := make([]U, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

// Pair is a generic type with a method.
type Pair[K comparable, V any] struct {
	k K
	v V
}

func (p Pair[K, V]) Key() K { return p.k }

func methodValues(ps []Pair[string, int]) []string {
	get := ps[0].Key // method value
	_ = get
	sorter := sort.Strings
	var out []string
	for _, p := range ps {
		out = append(out, p.Key())
	}
	sorter(out)
	return out
}

func labeledBreaks(grid [][]int) int {
outer:
	for _, row := range grid {
		for _, v := range row {
			if v < 0 {
				break outer
			}
			if v == 0 {
				continue outer
			}
		}
	}
	return 0
}

func nested() func() int {
	n := 0
	f := func() int {
		for i := 0; i < 3; i++ {
			defer func() { n++ }()
		}
		return n
	}
	return f
}

func typeSwitch(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case int:
		if x > 0 {
			return "pos"
		}
		return "neg"
	default:
		return "?"
	}
}
`)
	count := 0
	eachFunc(pkg.Files, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
		count++
		c := buildCFG(body)
		if c.Exit == nil || len(c.Blocks) == 0 {
			t.Fatalf("degenerate CFG for %s", decl.Name.Name)
		}
		if !entryReaches(c)[c.Exit] {
			t.Errorf("exit unreachable in %s (lit=%v)", decl.Name.Name, lit != nil)
		}
	})
	if count < 8 {
		t.Fatalf("eachFunc visited %d bodies, want at least 8 (decls + literals)", count)
	}
}

func TestForwardFlowJoinIsUnion(t *testing.T) {
	// A fact genned before a branch and killed on only one arm must
	// survive to the exit: may-analysis joins with union.
	pkg := loadFixture(t, "modelhub/internal/fix", `package fix

func f(v bool) {
	x := 1
	if v {
		x = 2 // kill
	}
	_ = x
}
`)
	c := cfgOf(t, pkg, "f")
	isDefine := func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		return ok && as.Tok.String() == ":="
	}
	isKill := func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		return ok && as.Tok.String() == "="
	}
	use, _ := findNode(c, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		return ok && len(as.Lhs) == 1 && astIdentName(as.Lhs[0]) == "_"
	})
	if use == nil {
		t.Fatal("use site not recorded")
	}
	if !factReaches(c, use, isDefine, isKill) {
		t.Fatal("fact should survive the unkilled else-arm to the use")
	}
	// And a kill on the only path does stop it.
	pkg2 := loadFixture(t, "modelhub/internal/fix2", `package fix2

func f() {
	x := 1
	x = 2
	_ = x
}
`)
	c2 := cfgOf(t, pkg2, "f")
	var target ast.Node
	for _, b := range c2.Blocks {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok && astIdentName(as.Lhs[0]) == "_" {
				target = n
			}
		}
	}
	if factReaches(c2, target, isDefine, isKill) {
		t.Fatal("fact killed on the only path should not reach the use")
	}
}

func astIdentName(e ast.Expr) string {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// TestLoadBuildTags checks the loader honors //go:build lines and
// _GOOS/_GOARCH filename suffixes: files for other platforms are skipped
// (even when they would not type-check here), and a package whose files
// are all foreign is dropped from ./... rather than failing the load.
func TestLoadBuildTags(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("fixture assumes a non-windows host")
	}
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module mini\n\ngo 1.22\n")
	write("internal/a/a.go", "package a\n\n// V is a demo value.\nvar V = 1\n")
	// Foreign by build tag: references an undefined symbol, so loading it
	// would be a type error.
	write("internal/a/gated.go", "//go:build windows\n\npackage a\n\nvar W = undefinedSymbol\n")
	// Foreign by filename suffix, same trap.
	write("internal/a/sys_windows.go", "package a\n\nvar X = alsoUndefined\n")
	// Tagged for the host: must load and type-check.
	write("internal/a/host.go", "//go:build unix || windows\n\npackage a\n\n// H is host-gated.\nvar H = 2\n")
	// A package that exists only on another platform disappears from ./...
	write("internal/w/w.go", "//go:build windows\n\npackage w\n\nvar Only = windowsOnly\n")

	pkgs, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "mini/internal/a" {
		t.Fatalf("loaded %d packages, want just mini/internal/a", len(pkgs))
	}
	if got := len(pkgs[0].Files); got != 2 {
		t.Fatalf("package a has %d files, want 2 (a.go + host.go)", got)
	}
	if pkgs[0].Root != dir {
		t.Fatalf("Root = %q, want %q", pkgs[0].Root, dir)
	}
}

func TestFileSuffixOK(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("case table assumes linux/amd64, host is %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	cases := []struct {
		name string
		want bool
	}{
		{"plain.go", true},
		{"store_test_helpers.go", true}, // "helpers" is not a GOOS/GOARCH
		{"sys_linux.go", true},
		{"sys_windows.go", false},
		{"asm_amd64.go", true},
		{"asm_arm64.go", false},
		{"sys_linux_amd64.go", true},
		{"sys_darwin_amd64.go", false},
		{"sys_linux_arm64.go", false},
		{"linux.go", true}, // a bare GOOS name is not a suffix
	}
	for _, c := range cases {
		if got := fileSuffixOK(c.name); got != c.want {
			t.Errorf("fileSuffixOK(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}
