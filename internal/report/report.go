// Package report renders model exploration results as HTML — the paper's
// "we render results in HTML front end when needed" (Sec. III-B) for
// dlv list, dlv desc (including an inline SVG training-loss chart), and
// dlv diff. Everything is self-contained HTML with no external assets.
package report

import (
	"fmt"
	"html/template"
	"maps"
	"slices"
	"strings"

	"modelhub/internal/dlv"
	"modelhub/internal/dnn"
)

const pageStyle = `<style>
body { font-family: system-ui, sans-serif; margin: 2rem; color: #222; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.5rem; }
table { border-collapse: collapse; margin: .75rem 0; }
th, td { border: 1px solid #ccc; padding: .35rem .7rem; text-align: left; font-size: .9rem; }
th { background: #f2f2f2; }
.kind { color: #666; } .added { color: #0a7f2e; } .removed { color: #b3261e; }
.changed { color: #8a6d00; } .mono { font-family: ui-monospace, monospace; }
</style>`

var pageTemplate = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{{.Title}}</title>` + pageStyle + `</head>
<body><h1>{{.Title}}</h1>{{.Body}}</body></html>`))

func renderPage(title string, body string) (string, error) {
	var sb strings.Builder
	err := pageTemplate.Execute(&sb, struct {
		Title string
		Body  template.HTML
	}{Title: title, Body: template.HTML(body)}) //nolint:gosec // body built from escaped fragments below
	return sb.String(), err
}

func esc(s string) string { return template.HTMLEscapeString(s) }

// List renders the dlv list view: one row per model version with lineage.
func List(versions []*dlv.Version) (string, error) {
	var b strings.Builder
	b.WriteString("<table><tr><th>ID</th><th>Name</th><th>Accuracy</th><th>Snapshots</th><th>Parent</th><th>Created</th><th>Message</th></tr>")
	for _, v := range versions {
		parent := "&mdash;"
		if v.ParentID != 0 {
			parent = fmt.Sprintf("%d", v.ParentID)
		}
		fmt.Fprintf(&b, "<tr><td>%d</td><td>%s</td><td>%.4f</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td></tr>",
			v.ID, esc(v.Name), v.Accuracy, len(v.Snapshots), parent, esc(v.Created), esc(v.Msg))
	}
	b.WriteString("</table>")
	return renderPage("dlv list", b.String())
}

// Desc renders the dlv desc view: metadata, the network table, the
// hyperparameters, and an inline SVG chart of the training loss.
func Desc(v *dlv.Version, log []dnn.LogEntry) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "<h2>model version %d: %s</h2>", v.ID, esc(v.Name))
	b.WriteString("<table>")
	fmt.Fprintf(&b, "<tr><th>created</th><td>%s</td></tr>", esc(v.Created))
	fmt.Fprintf(&b, "<tr><th>message</th><td>%s</td></tr>", esc(v.Msg))
	fmt.Fprintf(&b, "<tr><th>accuracy</th><td>%.4f</td></tr>", v.Accuracy)
	fmt.Fprintf(&b, "<tr><th>archived</th><td>%v</td></tr>", v.Archived)
	if v.ParentID != 0 {
		fmt.Fprintf(&b, "<tr><th>parent</th><td>%d</td></tr>", v.ParentID)
	}
	fmt.Fprintf(&b, "<tr><th>snapshots</th><td>%s</td></tr>", esc(strings.Join(v.Snapshots, ", ")))
	b.WriteString("</table>")

	b.WriteString("<h2>network</h2><table><tr><th>layer</th><th>kind</th><th>hyperparameters</th></tr>")
	order, err := v.NetDef.TopoOrder()
	if err != nil {
		return "", err
	}
	for _, name := range order {
		l := v.NetDef.Node(name)
		var hyper []string
		if l.Out > 0 {
			hyper = append(hyper, fmt.Sprintf("out=%d", l.Out))
		}
		if l.K > 0 {
			hyper = append(hyper, fmt.Sprintf("k=%d", l.K))
		}
		if l.Stride > 0 {
			hyper = append(hyper, fmt.Sprintf("stride=%d", l.Stride))
		}
		if l.Pad > 0 {
			hyper = append(hyper, fmt.Sprintf("pad=%d", l.Pad))
		}
		if l.Mode != "" {
			hyper = append(hyper, "mode="+l.Mode)
		}
		fmt.Fprintf(&b, `<tr><td class="mono">%s</td><td class="kind">%s</td><td>%s</td></tr>`,
			esc(l.Name), esc(l.Kind), esc(strings.Join(hyper, " ")))
	}
	b.WriteString("</table>")

	if len(v.Hyper) > 0 {
		b.WriteString("<h2>training hyperparameters</h2><table><tr><th>key</th><th>value</th></tr>")
		for _, k := range slices.Sorted(maps.Keys(v.Hyper)) {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td></tr>", esc(k), esc(v.Hyper[k]))
		}
		b.WriteString("</table>")
	}

	if len(log) > 0 {
		b.WriteString("<h2>training loss</h2>")
		b.WriteString(lossChart(log, 560, 220))
	}

	if len(v.Files) > 0 {
		b.WriteString("<h2>files</h2><table><tr><th>path</th><th>sha256</th></tr>")
		for _, path := range slices.Sorted(maps.Keys(v.Files)) {
			fmt.Fprintf(&b, `<tr><td class="mono">%s</td><td class="mono">%s</td></tr>`,
				esc(path), esc(v.Files[path][:12]+"…"))
		}
		b.WriteString("</table>")
	}
	return renderPage(fmt.Sprintf("dlv desc %d", v.ID), b.String())
}

// Diff renders the dlv diff side-by-side comparison.
func Diff(a, b *dlv.Version, rep *dlv.DiffReport) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "<h2>%s (v%d) vs %s (v%d)</h2>", esc(a.Name), a.ID, esc(b.Name), b.ID)
	sb.WriteString("<table><tr><th></th><th>change</th></tr>")
	for _, name := range rep.OnlyInA {
		fmt.Fprintf(&sb, `<tr><td class="mono">%s</td><td class="removed">only in v%d</td></tr>`, esc(name), rep.A)
	}
	for _, name := range rep.OnlyInB {
		fmt.Fprintf(&sb, `<tr><td class="mono">%s</td><td class="added">only in v%d</td></tr>`, esc(name), rep.B)
	}
	for _, name := range rep.ChangedLayers {
		fmt.Fprintf(&sb, `<tr><td class="mono">%s</td><td class="changed">spec changed</td></tr>`, esc(name))
	}
	sb.WriteString("</table>")
	if len(rep.HyperChanged) > 0 {
		sb.WriteString("<h2>hyperparameters</h2><table><tr><th>key</th><th>before</th><th>after</th></tr>")
		for _, k := range slices.Sorted(maps.Keys(rep.HyperChanged)) {
			vals := rep.HyperChanged[k]
			fmt.Fprintf(&sb, "<tr><td>%s</td><td>%s</td><td>%s</td></tr>", esc(k), esc(vals[0]), esc(vals[1]))
		}
		sb.WriteString("</table>")
	}
	fmt.Fprintf(&sb, "<p>accuracy delta: <b>%+.4f</b></p>", rep.AccuracyDelta)
	return renderPage("dlv diff", sb.String())
}
