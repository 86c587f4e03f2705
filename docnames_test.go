package modelhub

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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

var (
	// metricGet matches a metric registered under a literal name, inside
	// package obs or through it.
	metricGet = regexp.MustCompile(`\bGet(?:Counter|Gauge|FloatGauge|Histogram)\("([^"]+)"\)`)
	// backticked matches a name in a table cell; braces one {a,b} in it.
	backticked = regexp.MustCompile("`([^`]+)`")
	braces     = regexp.MustCompile(`\{([^{}]*)\}`)
)

// metricPrefixes are the families whose names are built at run time: the
// request metrics obs.WrapHandler registers under "hub.http", and the span
// layer's timings and child rollups.
var metricPrefixes = []string{"hub.http.", "span."}

// expandBraces expands every {a,b} of name into one name per alternative.
func expandBraces(name string) []string {
	loc := braces.FindStringSubmatchIndex(name)
	if loc == nil {
		return []string{name}
	}
	var out []string
	for _, alt := range strings.Split(name[loc[2]:loc[3]], ",") {
		out = append(out, expandBraces(name[:loc[0]]+alt+name[loc[1]:])...)
	}
	return out
}

// registeredMetrics collects the literal names non-test Go registers.
func registeredMetrics(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range metricGet.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// Every metric DESIGN.md §8's catalog names, each {a,b} expanded, is
// registered under that literal name by non-test Go, or belongs to a family
// built from a documented prefix: a renamed or deleted metric fails here
// until the catalog follows.
func TestMetricCatalogNamesRegisteredMetrics(t *testing.T) {
	registered := registeredMetrics(t)
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, catalog, _ := strings.Cut(string(text), "### Metric name catalog\n")
	catalog, _, _ = strings.Cut(catalog, "\n## ")
	rows := 0
	for _, line := range strings.Split(catalog, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		rows++
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			for _, name := range expandBraces(m[1]) {
				built := slices.ContainsFunc(metricPrefixes, func(p string) bool { return strings.HasPrefix(name, p) })
				if !registered[name] && !built {
					t.Errorf("DESIGN.md's metric catalog names %s, which no non-test Go registers", name)
				}
			}
		}
	}
	if rows < 20 {
		t.Fatalf("read %d rows of DESIGN.md's metric catalog: wrong section?", rows)
	}
}
