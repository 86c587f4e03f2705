package modelhub

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// docTestName matches a test, benchmark or fuzz target named in prose;
	// a trailing * names a family by prefix.
	docTestName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	declTest    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	makeFuzz    = regexp.MustCompile(`-fuzz=(\w+)`)
	// docVerb matches a dlv verb named in prose, as `dlv X` or ./dlv X;
	// verbCase matches the case labels of cmd/dlv's command switch.
	docVerb  = regexp.MustCompile("(?:`|\\./)dlv ([a-z][a-z-]*)")
	verbCase = regexp.MustCompile(`(?m)^\tcase (.+):$`)
	quoted   = regexp.MustCompile(`"(\w+)"`)
)

// declaredTests collects the Test*, Benchmark* and Fuzz* functions every
// _test.go file of the module declares.
func declaredTests(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declTest.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// resolves reports whether a documented name, or the family a trailing *
// names, is declared.
func resolves(name string, declared map[string]bool) bool {
	prefix, family := strings.CutSuffix(name, "*")
	if !family {
		return declared[name]
	}
	for d := range declared {
		if strings.HasPrefix(d, prefix) {
			return true
		}
	}
	return false
}

// Every test, benchmark and fuzz target that DESIGN.md or README.md names
// exists, and every -fuzz= target of the Makefile is a declared Fuzz
// function: a renamed or deleted test fails here until the prose follows.
func TestDocsNameDeclaredTests(t *testing.T) {
	declared := declaredTests(t)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range docTestName.FindAllString(string(text), -1) {
			if !resolves(name, declared) {
				t.Errorf("%s names %s, which no _test.go declares", doc, name)
			}
		}
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range makeFuzz.FindAllStringSubmatch(string(mk), -1) {
		if !strings.HasPrefix(m[1], "Fuzz") || !declared[m[1]] {
			t.Errorf("Makefile fuzzes %s, which no _test.go declares", m[1])
		}
	}
}

// Every dlv verb that DESIGN.md or README.md names, as `dlv X` or ./dlv X,
// is a command cmd/dlv defines: a deleted or renamed verb fails here until
// the prose follows.
func TestDocsNameDefinedVerbs(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("cmd", "dlv", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	verbs := map[string]bool{}
	for _, c := range verbCase.FindAllStringSubmatch(string(src), -1) {
		for _, q := range quoted.FindAllStringSubmatch(c[1], -1) {
			verbs[q[1]] = true
		}
	}
	if !verbs["archive"] || !verbs["repack"] {
		t.Fatalf("read verbs %v from cmd/dlv/main.go: wrong file or switch?", verbs)
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docVerb.FindAllStringSubmatch(string(text), -1) {
			if !verbs[m[1]] {
				t.Errorf("%s names dlv %s, which cmd/dlv does not define", doc, m[1])
			}
		}
	}
}
