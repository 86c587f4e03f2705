// Package lint is mhlint's analysis engine: a from-scratch static-analysis
// driver on the stdlib go/parser + go/types + go/ast stack (no x/tools).
// It loads every package of this module from source, runs a registry of
// named analyzers over the type-checked ASTs, and reports findings as
// file:line:col [analyzer] message.
//
// Each analyzer encodes one invariant of the ModelHub codebase that the
// compiler cannot check — the invariant catalog lives in DESIGN.md. A
// finding is suppressed in place with
//
//	//mhlint:ignore <analyzer> <reason>
//
// either trailing the offending line or on the line directly above it. The
// reason is mandatory: an ignore without one is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// SuppressedBy holds the reason of the matching //mhlint:ignore
	// directive, when one suppressed this finding.
	SuppressedBy string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named check.
type Analyzer struct {
	// Name is the registry key, used in findings and ignore directives.
	Name string
	// Doc is a one-line description for `mhlint -list`.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset *token.FileSet
	// Module is the module path (e.g. "modelhub").
	Module string
	// Path is the package import path.
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer string
	report   func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InLibrary reports whether the package is a library package of this module
// (under <module>/internal/). cmd/ binaries and examples/ are exempt from
// the library-only hygiene rules.
func (p *Pass) InLibrary() bool {
	return strings.HasPrefix(p.Path, p.Module+"/internal/")
}

// All returns the full analyzer registry in stable order: the three gen-1
// syntax-level analyzers, then the five gen-2 CFG/dataflow analyzers.
func All() []*Analyzer {
	return []*Analyzer{
		analyzerLocksafe,
		analyzerErrcheck,
		analyzerAPIHygiene,
		analyzerGoroleak,
		analyzerAtomicfield,
		analyzerCtxflow,
		analyzerSpanend,
		analyzerDetpath,
	}
}

// ByName resolves a comma-separated analyzer subset against the registry.
func ByName(names string) ([]*Analyzer, error) {
	reg := map[string]*Analyzer{}
	for _, a := range All() {
		reg[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := reg[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: empty analyzer selection %q", names)
	}
	return out, nil
}

// Result is the outcome of running analyzers over packages.
type Result struct {
	// Findings are the active (unsuppressed) diagnostics, sorted by position.
	Findings []Finding
	// Suppressed are findings matched by an //mhlint:ignore directive.
	Suppressed []Finding
}

// Run executes the analyzers over each package, applies suppression
// directives, and reports directive hygiene: a directive naming an unknown
// analyzer is a finding, and a directive that suppresses nothing (stale —
// the code it excused was fixed or moved) is a finding too, so the
// suppression count is an enforced budget rather than a ratchet. Staleness
// is only decidable for directives whose analyzer actually ran: partial
// `-only` runs skip the check for unselected analyzers, and wildcard
// directives are only checked when the full registry runs.
func Run(pkgs []*Package, analyzers []*Analyzer) Result {
	registry := map[string]bool{}
	for _, a := range All() {
		registry[a.Name] = true
	}
	selected := map[string]bool{}
	for _, a := range analyzers {
		selected[a.Name] = true
	}
	fullRun := len(selected) == len(registry)

	var res Result
	for _, pkg := range pkgs {
		ignores, directives, malformed := collectIgnores(pkg.Fset, pkg.Files)
		res.Findings = append(res.Findings, malformed...)
		var raw []Finding
		for _, a := range analyzers {
			pass := &Pass{
				Fset:     pkg.Fset,
				Module:   pkg.Module,
				Path:     pkg.Path,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				analyzer: a.Name,
				report:   func(f Finding) { raw = append(raw, f) },
			}
			a.Run(pass)
		}
		for _, f := range raw {
			if reason, ok := ignores.match(f); ok {
				f.SuppressedBy = reason
				res.Suppressed = append(res.Suppressed, f)
			} else {
				res.Findings = append(res.Findings, f)
			}
		}
		for _, d := range directives {
			switch {
			case d.analyzer != "*" && !registry[d.analyzer]:
				res.Findings = append(res.Findings, Finding{
					Pos:      d.pos,
					Analyzer: "mhlint",
					Message:  fmt.Sprintf("ignore directive names unknown analyzer %q", d.analyzer),
				})
			case d.used:
			case d.analyzer == "*" && !fullRun:
				// A wildcard's staleness is undecidable on a partial run.
			case d.analyzer == "*" || selected[d.analyzer]:
				res.Findings = append(res.Findings, Finding{
					Pos:      d.pos,
					Analyzer: "mhlint",
					Message:  fmt.Sprintf("stale ignore directive: no %s finding on this or the next line; delete it or re-justify", d.analyzer),
				})
			}
		}
	}
	sortFindings(res.Findings)
	sortFindings(res.Suppressed)
	return res
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// ignoreDirective is one parsed //mhlint:ignore comment. `used` is set
// when the directive suppresses at least one finding, so unused directives
// surface as stale.
type ignoreDirective struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
}

// ignoreIndex maps file -> line -> directives covering that line. A
// directive covers its own source line (trailing comment) and the line
// directly below it (comment on its own line).
type ignoreIndex map[string]map[int][]*ignoreDirective

const ignorePrefix = "//mhlint:ignore"

// ParseIgnoreDirective parses the text of one comment as an
// //mhlint:ignore directive. It returns ok=false when the comment is not a
// directive at all, and an empty analyzer or reason when it is one but is
// malformed (both are mandatory).
func ParseIgnoreDirective(text string) (analyzer, reason string, ok bool) {
	if !strings.HasPrefix(text, ignorePrefix) {
		return "", "", false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
	analyzer, reason, _ = strings.Cut(rest, " ")
	return analyzer, strings.TrimSpace(reason), true
}

// collectIgnores parses every //mhlint:ignore directive in the package.
// Malformed directives (missing analyzer or reason) are returned as
// findings under the reserved analyzer name "mhlint"; well-formed ones are
// returned both indexed by covered line and as a flat list for staleness
// accounting.
func collectIgnores(fset *token.FileSet, files []*ast.File) (ignoreIndex, []*ignoreDirective, []Finding) {
	idx := ignoreIndex{}
	var directives []*ignoreDirective
	var malformed []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, reason, isDirective := ParseIgnoreDirective(c.Text)
				if !isDirective {
					continue
				}
				pos := fset.Position(c.Pos())
				if name == "" || reason == "" {
					malformed = append(malformed, Finding{
						Pos:      pos,
						Analyzer: "mhlint",
						Message:  "malformed ignore directive: want //mhlint:ignore <analyzer> <reason>",
					})
					continue
				}
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = map[int][]*ignoreDirective{}
					idx[pos.Filename] = byLine
				}
				d := &ignoreDirective{analyzer: name, reason: reason, pos: pos}
				directives = append(directives, d)
				byLine[pos.Line] = append(byLine[pos.Line], d)
				byLine[pos.Line+1] = append(byLine[pos.Line+1], d)
			}
		}
	}
	return idx, directives, malformed
}

// match reports whether a directive suppresses the finding, returning the
// directive's reason and marking the directive used.
func (idx ignoreIndex) match(f Finding) (string, bool) {
	for _, d := range idx[f.Pos.Filename][f.Pos.Line] {
		if d.analyzer == f.Analyzer || d.analyzer == "*" {
			d.used = true
			return d.reason, true
		}
	}
	return "", false
}
