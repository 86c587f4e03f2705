package dql

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex(`select m1 where m1.name like "alex_%" and m1.accuracy >= 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokKind{}
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	if toks[0].text != "select" || toks[0].kind != tokKeyword {
		t.Fatalf("first token = %v", toks[0])
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Fatal("missing EOF token")
	}
	_ = kinds
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := lex(`"a\"b"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != `a"b` {
		t.Fatalf("string = %q", toks[0].text)
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{`"unterminated`, `$x`, `m ! x`, "sel@ect"} {
		if _, err := lex(bad); err == nil {
			t.Errorf("lex(%q) should fail", bad)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := lex("0.01 -3 1e-4")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "0.01" || toks[1].text != "-3" || toks[2].text != "1e-4" {
		t.Fatalf("numbers = %v %v %v", toks[0], toks[1], toks[2])
	}
}

// Query 1 from the paper (adapted: creation_time attribute and selector).
func TestParseSelectQuery1(t *testing.T) {
	stmt, err := Parse(`select m1
		where m1.name like "alexnet_%" and
		      m1.creation_time > "2015-11-22" and
		      m1["conv[1,3,5]"].next has POOL("MAX")`)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("stmt type %T", stmt)
	}
	if s.Var != "m1" || len(s.Where) != 3 {
		t.Fatalf("parsed = %+v", s)
	}
	if s.Where[0].Op != "like" || s.Where[0].Value.Str != "alexnet_%" {
		t.Fatalf("cond0 = %+v", s.Where[0])
	}
	if s.Where[2].Selector != "conv[1,3,5]" || s.Where[2].Direction != "next" ||
		s.Where[2].Template.Kind != "pool" || s.Where[2].Template.Arg != "MAX" {
		t.Fatalf("cond2 = %+v", s.Where[2])
	}
}

// Query 2 from the paper.
func TestParseSliceQuery2(t *testing.T) {
	stmt, err := Parse(`slice m2 from m1
		where m1.name like "alexnet-origin%"
		mutate m2.input = m1["conv1"] and m2.output = m1["fc7"]`)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(*SliceStmt)
	if s.NewVar != "m2" || s.SrcVar != "m1" || s.Input != "conv1" || s.Output != "fc7" {
		t.Fatalf("parsed = %+v", s)
	}
}

// Query 3 from the paper.
func TestParseConstructQuery3(t *testing.T) {
	stmt, err := Parse(`construct m2 from m1
		where m1.name like "alexnet-avgv1%" and
		      m1["conv*($1)"].next has POOL("AVG")
		mutate m1["conv*($1)"].insert = RELU("relu$1")`)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(*ConstructStmt)
	if len(s.Mutations) != 1 || s.Mutations[0].Action != "insert" ||
		s.Mutations[0].Template.Kind != "relu" || s.Mutations[0].Template.Arg != "relu$1" {
		t.Fatalf("mutations = %+v", s.Mutations)
	}
}

// Query 4 from the paper (adapted: keep syntax made explicit).
func TestParseEvaluateQuery4(t *testing.T) {
	stmt, err := Parse(`evaluate m
		from "query3"
		with config = "{\"input_data\":\"digits\"}"
		vary config.base_lr in [0.1, 0.01, 0.001] and
		     config.momentum auto and
		     config.input_data in ["digits", "digits-hard"]
		keep top(5, m["loss"], 100)`)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(*EvaluateStmt)
	if s.FromName != "query3" || len(s.Vary) != 3 {
		t.Fatalf("parsed = %+v", s)
	}
	if !s.Vary[1].Auto || s.Vary[1].Key != "momentum" {
		t.Fatalf("vary[1] = %+v", s.Vary[1])
	}
	if len(s.Vary[0].Values) != 3 || s.Vary[0].Values[1].Num != 0.01 {
		t.Fatalf("vary[0] = %+v", s.Vary[0])
	}
	if s.Keep.Kind != "top" || s.Keep.K != 5 || s.Keep.Metric != "loss" || s.Keep.Iters != 100 {
		t.Fatalf("keep = %+v", s.Keep)
	}
}

func TestParseEvaluateNested(t *testing.T) {
	stmt, err := Parse(`evaluate m from (select m1 where m1.name like "x%") keep top(1, m["acc"], 10)`)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(*EvaluateStmt)
	if s.FromQuery == nil {
		t.Fatal("nested query not parsed")
	}
	if _, ok := s.FromQuery.(*SelectStmt); !ok {
		t.Fatalf("nested type %T", s.FromQuery)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`frobnicate m`,
		`select`,
		`select m where`,
		`select m where x.name = "y"`,            // wrong variable
		`select m where m.name ~ "y"`,            // bad operator
		`slice s from m mutate s.input = m["a"]`, // missing output
		`construct c from m mutate m["a"].paint = RELU`,
		`evaluate m from "q"`,                          // missing keep
		`evaluate m from "q" keep top(1, m["wat"], 5)`, // bad metric
		`evaluate m from "q" keep top(1, m["loss"], 0)`,
		`select m where m["a"].sideways has POOL`,
		`select m where m["a"].next has WIDGET`,
		`select m trailing`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestSelectorCompile(t *testing.T) {
	sel, err := CompileSelector("conv[1,3,5]")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"conv1", "conv3", "conv5"} {
		if ok, _ := sel.Match(name); !ok {
			t.Errorf("%s should match", name)
		}
	}
	for _, name := range []string{"conv2", "conv10", "xconv1"} {
		if ok, _ := sel.Match(name); ok {
			t.Errorf("%s should not match", name)
		}
	}
}

func TestSelectorStarCapture(t *testing.T) {
	sel, err := CompileSelector("conv*($1)")
	if err != nil {
		t.Fatal(err)
	}
	ok, caps := sel.Match("conv2_1")
	if !ok || caps[1] != "2_1" {
		t.Fatalf("ok=%v caps=%v", ok, caps)
	}
	if got := SubstituteCaptures("relu$1", caps); got != "relu2_1" {
		t.Fatalf("substituted = %q", got)
	}
}

func TestSelectorPlainStar(t *testing.T) {
	sel, err := CompileSelector("ip*")
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := sel.Match("ip1"); !ok {
		t.Fatal("ip1 should match")
	}
	if ok, _ := sel.Match("zip1"); ok {
		t.Fatal("zip1 should not match")
	}
}

func TestSelectorErrors(t *testing.T) {
	for _, bad := range []string{"conv[13", "a(b)", "a$1"} {
		if _, err := CompileSelector(bad); err == nil {
			t.Errorf("CompileSelector(%q) should fail", bad)
		}
	}
}

func TestSelectorLiteralRegexChars(t *testing.T) {
	sel, err := CompileSelector("fc7.w")
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := sel.Match("fc7xw"); ok {
		t.Fatal("dot must be literal, not regexp wildcard")
	}
	if ok, _ := sel.Match("fc7.w"); !ok {
		t.Fatal("literal dot should match itself")
	}
}

func TestGlobLike(t *testing.T) {
	if !globLike("alexnet_%", "alexnet_v1") || globLike("alexnet_%", "vgg") {
		t.Fatal("globLike wrong")
	}
	if !globLike("%", "") || !globLike("a_c", "abc") || globLike("a_c", "ac") {
		t.Fatal("globLike wildcards wrong")
	}
}

func TestGlobLikeProperty(t *testing.T) {
	// A pattern equal to the string (no wildcards) always matches; adding a
	// trailing % keeps it matching any extension.
	f := func(s string, suffix string) bool {
		if len(s) > 20 || len(suffix) > 20 {
			return true
		}
		clean := stripWildcards(s)
		ext := stripWildcards(suffix)
		return globLike(clean, clean) && globLike(clean+"%", clean+ext)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func stripWildcards(s string) string {
	return strings.NewReplacer("%", "", "_", "").Replace(s)
}

func TestGlobLikeCases(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"%", "", true},
		{"%%", "anything", true},
		{"a%b", "ab", true},
		{"a%b", "axxxb", true},
		{"a%b", "axxxc", false},
		{"_", "x", true},
		{"_", "", false},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"", "", true},
		{"", "x", false},
	}
	for _, c := range cases {
		if got := globLike(c.pat, c.s); got != c.want {
			t.Errorf("globLike(%q, %q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

// Adversarial patterns stay fast: the iterative matcher is
// O(len(p)·len(s)), where a recursive one is exponential here.
func TestGlobLikeAdversarial(t *testing.T) {
	s := strings.Repeat("a", 2000) + "b"
	p := strings.Repeat("%a", 30) + "%c"
	done := make(chan bool, 1)
	go func() { done <- globLike(p, s) }()
	select {
	case got := <-done:
		if got {
			t.Fatal("pattern must not match")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("globLike too slow on adversarial input")
	}
	if !globLike(strings.Repeat("%a", 30)+"%b", s) {
		t.Fatal("matching adversarial pattern must succeed")
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("select m where m.name =")
	if err == nil || !strings.Contains(err.Error(), "syntax error") {
		t.Fatalf("err = %v", err)
	}
}

// Lexer and parser must never panic, whatever bytes arrive (fuzz-lite).
func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(input string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Parse(%q) panicked: %v", input, r)
			}
		}()
		_, _ = Parse(input)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// And a few adversarial shapes random strings rarely hit.
	for _, s := range []string{
		`select m where m["`, `select m where m[""].next has`, "evaluate m from (",
		`construct c from m mutate m["*($1)"].insert = RELU("$1")`,
		"select m where m.a = -", "slice s from m mutate", "$1", "((((",
		`evaluate m from (evaluate x from "q" keep top(1, x["loss"], 1)) keep top(1, m["acc"], 1)`,
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Parse(%q) panicked: %v", s, r)
				}
			}()
			_, _ = Parse(s)
		}()
	}
}

// Selector compilation must never panic either.
func TestSelectorNeverPanicsProperty(t *testing.T) {
	f := func(src, name string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("CompileSelector(%q) panicked: %v", src, r)
			}
		}()
		sel, err := CompileSelector(src)
		if err == nil {
			sel.Match(name)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// The paper's Query 4 parses verbatim (modulo the explicit keep syntax).
func TestParsePaperQuery4Verbatim(t *testing.T) {
	stmt, err := Parse(`evaluate m
		from "query3"
		with config = "path_to_config"
		vary config.base_lr in [0.1, 0.01, 0.001] and
		     config.net["conv*"].lr auto and
		     config.input_data in ["path1", "path2"]
		keep top(5, m["loss"], 100)`)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(*EvaluateStmt)
	if len(s.Vary) != 3 {
		t.Fatalf("vary = %+v", s.Vary)
	}
	if s.Vary[1].Key != "net.lr" || s.Vary[1].Selector != "conv*" || !s.Vary[1].Auto {
		t.Fatalf("net.lr clause = %+v", s.Vary[1])
	}
}

func TestParsePerLayerVaryErrors(t *testing.T) {
	for _, q := range []string{
		`evaluate m from "q" vary config.net["a"].momentum auto keep top(1, m["loss"], 5)`,
		`evaluate m from "q" vary config.net.lr auto keep top(1, m["loss"], 5)`,
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}
