package lint

import (
	"go/token"
	"strings"
	"testing"
	"unicode/utf8"
)

func mkFinding(file string, line int, analyzer, msg string) Finding {
	return Finding{
		Pos:      token.Position{Filename: file, Line: line, Column: 1},
		Analyzer: analyzer,
		Message:  msg,
	}
}

func TestModuleRel(t *testing.T) {
	rel := ModuleRel("/work/mod")
	cases := [][2]string{
		{"/work/mod/internal/a/a.go", "internal/a/a.go"},
		{"/elsewhere/b.go", "/elsewhere/b.go"},
		{"fixture.go", "fixture.go"}, // already relative: untouched
	}
	for _, c := range cases {
		if got := rel(c[0]); got != c[1] {
			t.Errorf("rel(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

func TestJSONReportShape(t *testing.T) {
	fresh := []Finding{mkFinding("a.go", 1, "detpath", "map order")}
	sup := []Finding{{
		Pos:          token.Position{Filename: "b.go", Line: 2, Column: 3},
		Analyzer:     "errcheck",
		Message:      "dropped",
		SuppressedBy: "audited",
	}}
	r := Report("modelhub", 3, fresh, sup, nil)
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{
		`"module": "modelhub"`,
		`"packages": 3`,
		`"detpath"`,
		`"suppressed_by": "audited"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report JSON missing %s:\n%s", want, s)
		}
	}
	if !strings.HasSuffix(s, "\n") {
		t.Error("report JSON should end in a newline")
	}
}

func TestParseIgnoreDirective(t *testing.T) {
	cases := []struct {
		text     string
		analyzer string
		reason   string
		ok       bool
	}{
		{"//mhlint:ignore errcheck close error is moot", "errcheck", "close error is moot", true},
		{"//mhlint:ignore * blanket", "*", "blanket", true},
		{"//mhlint:ignore errcheck", "errcheck", "", true},
		{"//mhlint:ignore", "", "", true},
		{"// mhlint:ignore errcheck spaced out", "", "", false},
		{"//nolint:errcheck", "", "", false},
		{"plain text", "", "", false},
	}
	for _, c := range cases {
		a, r, ok := ParseIgnoreDirective(c.text)
		if a != c.analyzer || r != c.reason || ok != c.ok {
			t.Errorf("ParseIgnoreDirective(%q) = (%q, %q, %v), want (%q, %q, %v)", c.text, a, r, ok, c.analyzer, c.reason, c.ok)
		}
	}
}

// FuzzLintDirective drives arbitrary bytes through the text format the
// lint gate trusts, the //mhlint:ignore directive parser. Invariants: it
// never panics; a parse that claims ok really saw the prefix; a directive
// rebuilt from its parts parses to the same analyzer.
func FuzzLintDirective(f *testing.F) {
	f.Add([]byte("//mhlint:ignore errcheck close error is moot"))
	f.Add([]byte("//mhlint:ignore * blanket excuse"))
	f.Add([]byte("//mhlint:ignore\t"))
	f.Add([]byte("//mhlint:ignore errcheck"))
	f.Add([]byte("// mhlint:ignore errcheck spaced out"))
	f.Add([]byte("//mhlint:ignore  goroleak   padded   reason  "))
	f.Fuzz(func(t *testing.T, data []byte) {
		text := string(data)
		analyzer, reason, ok := ParseIgnoreDirective(text)
		if ok && !strings.HasPrefix(text, "//mhlint:ignore") {
			t.Fatalf("ok=true for non-directive %q", text)
		}
		if !ok && (analyzer != "" || reason != "") {
			t.Fatalf("not-a-directive returned content (%q, %q)", analyzer, reason)
		}
		if ok && utf8.ValidString(text) {
			// Reparsing a directive rebuilt from its parts must agree on
			// the analyzer (reason whitespace is normalized).
			a2, _, ok2 := ParseIgnoreDirective("//mhlint:ignore " + analyzer + " " + reason)
			if analyzer != "" && (!ok2 || a2 != analyzer) {
				t.Fatalf("rebuilt directive parsed as (%q, %v), want analyzer %q", a2, ok2, analyzer)
			}
		}
	})
}
