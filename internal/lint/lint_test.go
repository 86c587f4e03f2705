package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// fixture type-checking shares one file set and one source importer so the
// stdlib is only type-checked once per test binary.
var (
	fixOnce sync.Once
	fixFset *token.FileSet
	fixImp  types.Importer
)

// loadFixture parses and type-checks one fixture source under the given
// import path (the path drives the package-scoping rules).
func loadFixture(t *testing.T, path, src string) *Package {
	t.Helper()
	fixOnce.Do(func() {
		fixFset = token.NewFileSet()
		fixImp = importer.ForCompiler(fixFset, "source", nil)
	})
	f, err := parser.ParseFile(fixFset, t.Name()+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: fixImp}
	tpkg, err := conf.Check(path, fixFset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check fixture: %v", err)
	}
	return &Package{
		Module: "modelhub",
		Path:   path,
		Fset:   fixFset,
		Files:  []*ast.File{f},
		Types:  tpkg,
		Info:   info,
	}
}

// runFixture runs the analyzers over one fixture.
func runFixture(t *testing.T, path, src string) Result {
	t.Helper()
	return Run([]*Package{loadFixture(t, path, src)})
}

// wantFindings asserts the active findings contain each wanted substring,
// in order, and nothing else.
func wantFindings(t *testing.T, res Result, want []string, wantSuppressed int) {
	t.Helper()
	if len(res.Findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(res.Findings), len(want), formatFindings(res.Findings))
	}
	for i, w := range want {
		if !strings.Contains(res.Findings[i].Message, w) {
			t.Errorf("finding %d = %q, want substring %q", i, res.Findings[i].Message, w)
		}
	}
	if len(res.Suppressed) != wantSuppressed {
		t.Errorf("got %d suppressed, want %d:\n%s", len(res.Suppressed), wantSuppressed, formatFindings(res.Suppressed))
	}
}

func formatFindings(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString("  " + f.String() + "\n")
	}
	return b.String()
}

func TestIgnoreDirectiveMalformed(t *testing.T) {
	res := runFixture(t, "modelhub/internal/fix", `package fix

import "os"

//mhlint:ignore errcheck
func F() { os.Remove("x") }
`)
	// The malformed directive (no reason) is itself a finding, and it does
	// not suppress the os.Remove finding.
	if len(res.Findings) != 2 {
		t.Fatalf("got %d findings, want 2 (malformed directive + unsuppressed):\n%s", len(res.Findings), formatFindings(res.Findings))
	}
	if res.Findings[0].Analyzer != "mhlint" || !strings.Contains(res.Findings[0].Message, "malformed") {
		t.Errorf("first finding = %v, want malformed-directive report", res.Findings[0])
	}
}

func TestIgnoreWildcard(t *testing.T) {
	res := runFixture(t, "modelhub/internal/fix", `package fix

import "os"

func F() {
	os.Remove("x") //mhlint:ignore * demo of the wildcard form
}
`)
	wantFindings(t, res, nil, 1)
}

func TestStaleDirectiveOnFullRun(t *testing.T) {
	res := runFixture(t, "modelhub/internal/fix", `package fix

//mhlint:ignore errcheck historical justification that no longer applies
var V = 1
`)
	wantFindings(t, res, []string{"stale ignore directive: no errcheck finding"}, 0)
}

func TestStaleWildcardDirective(t *testing.T) {
	res := runFixture(t, "modelhub/internal/fix", `package fix

//mhlint:ignore * blanket excuse covering nothing
var V = 1
`)
	wantFindings(t, res, []string{"stale ignore directive: no * finding"}, 0)
}

func TestUnknownAnalyzerDirective(t *testing.T) {
	res := runFixture(t, "modelhub/internal/fix", `package fix

//mhlint:ignore errchek typo for errcheck
var V = 1
`)
	wantFindings(t, res, []string{`ignore directive names unknown analyzer "errchek"`}, 0)
}

func TestUsedDirectiveIsNotStale(t *testing.T) {
	res := runFixture(t, "modelhub/internal/fix", `package fix

import "os"

func Cleanup() {
	//mhlint:ignore errcheck best-effort temp cleanup
	os.Remove("x")
}
`)
	// What must NOT appear is a stale-directive finding for the used
	// errcheck ignore.
	wantFindings(t, res, nil, 1)
	if res.Suppressed[0].Analyzer != "errcheck" {
		t.Fatalf("suppressed %v, want the errcheck finding", res.Suppressed[0])
	}
}

// TestSuppressedOutputDeterministic locks the ordering contract for
// -suppressed output: position-sorted across analyzers, stable across runs.
// errcheck runs first, so its finding (later in the file) is reported
// before detpath's and only the sort puts them in file order.
func TestSuppressedOutputDeterministic(t *testing.T) {
	src := `package tensor

import "os"

func Sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		//mhlint:ignore detpath first
		s += v
	}
	//mhlint:ignore errcheck second
	os.Remove("x")
	return s
}
`
	var prev []string
	for i := 0; i < 3; i++ {
		res := runFixture(t, "modelhub/internal/tensor", src)
		var got []string
		for _, f := range res.Suppressed {
			got = append(got, fmt.Sprintf("%d:%d %s %s", f.Pos.Line, f.Pos.Column, f.Analyzer, f.SuppressedBy))
		}
		if len(got) != 2 || !strings.Contains(got[0], "detpath first") || !strings.Contains(got[1], "errcheck second") {
			t.Fatalf("run %d: suppressed output %v, want position-sorted detpath then errcheck", i, got)
		}
		if prev != nil && !slices.Equal(prev, got) {
			t.Fatalf("run %d: order changed: %v vs %v", i, prev, got)
		}
		prev = got
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pat, imp string
		want     bool
	}{
		{"./...", "modelhub", true},
		{"./...", "modelhub/internal/pas", true},
		{"./internal/...", "modelhub/internal/pas", true},
		{"./internal/...", "modelhub/cmd/dlv", false},
		{"./internal/pas", "modelhub/internal/pas", true},
		{"./internal/pas", "modelhub/internal/pasx", false},
		{"internal/pas", "modelhub/internal/pas", true},
		{"modelhub/internal/pas", "modelhub/internal/pas", true},
	}
	for _, c := range cases {
		if got := matchPattern("modelhub", c.pat, c.imp); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.pat, c.imp, got, c.want)
		}
	}
}

// TestLoadModule builds a miniature two-package module on disk and checks
// the loader resolves the internal import and the analyzers see both
// packages.
func TestLoadModule(t *testing.T) {
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
	write("internal/a/a.go", `package a

// V is a demo value.
var V = 1
`)
	write("internal/b/b.go", `package b

import (
	"fmt"

	"mini/internal/a"
)

// F prints the demo value.
func F() { fmt.Println(a.V) }
`)
	write("internal/b/b_test.go", `package b

// Test files must not be loaded; this one would not even parse OK(
`)
	pkgs, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	// fmt.Println in a library package drops its (n, err) result.
	res := Run(pkgs)
	if len(res.Findings) != 1 || res.Findings[0].Analyzer != "errcheck" ||
		!strings.Contains(res.Findings[0].Message, "fmt.Println") {
		t.Fatalf("mini-module findings = %s, want the fmt.Println errcheck finding", formatFindings(res.Findings))
	}

	if _, err := Load(dir, []string{"./nope/..."}); err == nil {
		t.Fatal("Load with unmatched pattern should fail")
	}
}
