package lint

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
)

// This file is the machine-readable half of the driver: a JSON report for
// CI artifacts, with module-relative paths so the artifact does not depend
// on the checkout directory.

// ModuleRel returns a function rewriting absolute file paths to
// slash-separated module-relative ones, leaving paths outside root (and
// already-relative fixture names) untouched.
func ModuleRel(root string) func(string) string {
	return func(p string) string {
		if root == "" || !filepath.IsAbs(p) {
			return filepath.ToSlash(p)
		}
		r, err := filepath.Rel(root, p)
		if err != nil || strings.HasPrefix(r, "..") {
			return filepath.ToSlash(p)
		}
		return filepath.ToSlash(r)
	}
}

// JSONFinding is the machine-readable form of one finding.
type JSONFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed string `json:"suppressed_by,omitempty"`
}

// JSONReport is the full machine-readable run outcome, ordered
// deterministically (findings sorted by file, line, col, analyzer).
type JSONReport struct {
	Module     string        `json:"module"`
	Packages   int           `json:"packages"`
	Analyzers  []string      `json:"analyzers"`
	Findings   []JSONFinding `json:"findings"`
	Suppressed []JSONFinding `json:"suppressed"`
}

// Report assembles the JSON form of a run, with file paths rewritten by rel
// (nil for identity).
func Report(module string, packages int, analyzers []*Analyzer, findings, suppressed []Finding, rel func(string) string) *JSONReport {
	if rel == nil {
		rel = func(p string) string { return p }
	}
	conv := func(fs []Finding) []JSONFinding {
		out := make([]JSONFinding, 0, len(fs))
		for _, f := range fs {
			out = append(out, JSONFinding{
				File:       rel(f.Pos.Filename),
				Line:       f.Pos.Line,
				Col:        f.Pos.Column,
				Analyzer:   f.Analyzer,
				Message:    f.Message,
				Suppressed: f.SuppressedBy,
			})
		}
		return out
	}
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	return &JSONReport{
		Module:     module,
		Packages:   packages,
		Analyzers:  names,
		Findings:   conv(findings),
		Suppressed: conv(suppressed),
	}
}

// Marshal renders the report as indented JSON ending in a newline.
func (r *JSONReport) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("lint: json report: %w", err)
	}
	return append(data, '\n'), nil
}
