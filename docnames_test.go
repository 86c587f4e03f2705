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
	// flagDef matches a flag a flag set defines; codeSpan a Markdown code
	// span.
	flagDef  = regexp.MustCompile(`\.(?:Bool|Int|Int64|Uint|Uint64|String|Float64|Duration)\("([^"]+)"`)
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
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

// flagsIn collects the names of the flags src defines.
func flagsIn(src string) map[string]bool {
	names := map[string]bool{}
	for _, m := range flagDef.FindAllStringSubmatch(src, -1) {
		names[m[1]] = true
	}
	return names
}

// dlvFlags reads cmd/dlv/main.go: the global flags, defined before the
// command switch, and each verb's flags, defined in its case of the switch.
func dlvFlags(t *testing.T) (global map[string]bool, verbs map[string]map[string]bool) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("cmd", "dlv", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	cases := verbCase.FindAllStringSubmatchIndex(string(src), -1)
	if len(cases) == 0 {
		t.Fatal("no command switch in cmd/dlv/main.go")
	}
	global = flagsIn(string(src[:cases[0][0]]))
	verbs = map[string]map[string]bool{}
	for i, c := range cases {
		end := len(src)
		if i+1 < len(cases) {
			end = cases[i+1][0]
		}
		flags := flagsIn(string(src[c[1]:end]))
		for _, q := range quoted.FindAllStringSubmatch(string(src[c[2]:c[3]]), -1) {
			verbs[q[1]] = flags
		}
	}
	if verbs["archive"] == nil || verbs["repack"] == nil || !global["trace"] || !verbs["archive"]["algo"] {
		t.Fatalf("read global flags %v and verbs %v from cmd/dlv/main.go: wrong file or switch?", global, verbs)
	}
	return global, verbs
}

// Every dlv verb that DESIGN.md or README.md names, as `dlv X` or ./dlv X,
// is a command cmd/dlv defines: a deleted or renamed verb fails here until
// the prose follows.
func TestDocsNameDefinedVerbs(t *testing.T) {
	_, verbs := dlvFlags(t)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docVerb.FindAllStringSubmatch(string(text), -1) {
			if verbs[m[1]] == nil {
				t.Errorf("%s names dlv %s, which cmd/dlv does not define", doc, m[1])
			}
		}
	}
}

// Every -flag in a DESIGN.md or README.md code span that starts with dlv,
// modelhub-server or mhbench is one that command defines. dlv's flags before
// the verb are global flags, and after it that verb's own; after `dlv a|b`
// or `dlv a/b` a flag must be defined by each verb named. A removed or
// renamed flag fails here until the prose follows.
func TestDocsNameDefinedFlags(t *testing.T) {
	global, verbs := dlvFlags(t)
	commands := map[string]map[string]bool{"dlv": global}
	for _, cmd := range []string{"modelhub-server", "mhbench"} {
		src, err := os.ReadFile(filepath.Join("cmd", cmd, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		if commands[cmd] = flagsIn(string(src)); len(commands[cmd]) == 0 {
			t.Fatalf("read no flags from cmd/%s/main.go", cmd)
		}
	}
	checked := 0
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range codeSpan.FindAllStringSubmatch(string(text), -1) {
			words := strings.Fields(m[1])
			if len(words) == 0 {
				continue
			}
			cmd := strings.TrimPrefix(words[0], "./")
			flags, ok := commands[cmd]
			if !ok {
				continue
			}
			// sets holds the flag sets a -flag here must be in, by the
			// command line they belong to.
			sets := map[string]map[string]bool{cmd: flags}
			for _, w := range words[1:] {
				name, isFlag := strings.CutPrefix(w, "-")
				if !isFlag {
					if cmd == "dlv" && sets["dlv"] != nil {
						if named := namedVerbs(w, verbs); named != nil {
							sets = named
						}
					}
					continue
				}
				name, _, _ = strings.Cut(strings.TrimPrefix(name, "-"), "=")
				if name == "" || name[0] < 'a' || name[0] > 'z' {
					continue
				}
				checked++
				for line, set := range sets {
					if !set[name] {
						t.Errorf("%s: `%s` names -%s, which %s does not define", doc, m[1], name, line)
					}
				}
			}
		}
	}
	if checked < 5 {
		t.Fatalf("checked %d flags in the docs' code spans: wrong files?", checked)
	}
}

// namedVerbs returns the flag sets of the dlv verbs a word names, one verb
// or several joined by | or /, keyed "dlv <verb>"; nil if some part of the
// word is not a verb.
func namedVerbs(word string, verbs map[string]map[string]bool) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, v := range strings.FieldsFunc(word, func(r rune) bool { return r == '|' || r == '/' }) {
		if verbs[v] == nil {
			return nil
		}
		out["dlv "+v] = verbs[v]
	}
	if len(out) == 0 {
		return nil
	}
	return out
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
