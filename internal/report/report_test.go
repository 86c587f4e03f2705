package report

import (
	"regexp"
	"slices"
	"strings"
	"testing"

	"modelhub/internal/dlv"
	"modelhub/internal/dnn"
	"modelhub/internal/tensor"
	"modelhub/internal/zoo"
)

func sampleVersion() *dlv.Version {
	return &dlv.Version{
		ID:        3,
		Name:      "lenet <v1>", // angle brackets exercise escaping
		Msg:       "baseline & more",
		Created:   "2026-07-04T00:00:00Z",
		Accuracy:  0.9125,
		NetDef:    zoo.LeNet("lenet"),
		Hyper:     map[string]string{"base_lr": "0.1", "momentum": "0.9"},
		Snapshots: []string{"ckpt-000010", "latest"},
		Files:     map[string]string{"train.cfg": strings.Repeat("ab", 32)},
		ParentID:  1,
	}
}

func sampleLog() []dnn.LogEntry {
	return []dnn.LogEntry{
		{Iter: 10, Loss: 2.1, Accuracy: 0.2, LR: 0.1},
		{Iter: 20, Loss: 1.2, Accuracy: 0.5, LR: 0.1},
		{Iter: 30, Loss: 0.4, Accuracy: 0.9, LR: 0.1},
	}
}

func TestListHTML(t *testing.T) {
	html, err := List([]*dlv.Version{sampleVersion()})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<!DOCTYPE html>", "dlv list", "lenet &lt;v1&gt;", "0.9125"} {
		if !strings.Contains(html, want) {
			t.Fatalf("list html missing %q", want)
		}
	}
	if strings.Contains(html, "<v1>") {
		t.Fatal("version name must be HTML-escaped")
	}
}

func TestDescHTML(t *testing.T) {
	html, err := Desc(sampleVersion(), sampleLog())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"conv1", "pool1", "mode=MAX", "base_lr", "<svg", "polyline", "train.cfg",
		"baseline &amp; more",
	} {
		if !strings.Contains(html, want) {
			t.Fatalf("desc html missing %q", want)
		}
	}
}

// A DAG model's layer table is in topological order, whatever order its
// definition declares the layers in.
func TestDescHTMLListsDAGLayersInTopoOrder(t *testing.T) {
	v := sampleVersion()
	v.NetDef = zoo.ResNetSkip("resnet-skip")
	slices.Reverse(v.NetDef.Nodes)
	html, err := Desc(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, m := range regexp.MustCompile(`<td class="mono">([^<]+)</td><td class="kind">`).FindAllStringSubmatch(html, -1) {
		pos[m[1]] = i
	}
	if len(pos) != len(v.NetDef.Nodes) {
		t.Fatalf("desc lists %d of %d layers", len(pos), len(v.NetDef.Nodes))
	}
	for _, e := range v.NetDef.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("desc lists %s after %s", e.From, e.To)
		}
	}
}

func TestDescHTMLNoLog(t *testing.T) {
	html, err := Desc(sampleVersion(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(html, "<svg") {
		t.Fatal("no chart without a log")
	}
}

func TestDiffHTML(t *testing.T) {
	a, b := sampleVersion(), sampleVersion()
	b.ID = 4
	rep := &dlv.DiffReport{
		A: 3, B: 4,
		OnlyInA:       []string{"prob"},
		OnlyInB:       []string{"extra1"},
		ChangedLayers: []string{"conv1"},
		HyperChanged:  map[string][2]string{"base_lr": {"0.1", "0.01"}},
		AccuracyDelta: 0.05,
	}
	html, err := Diff(a, b, rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"only in v3", "only in v4", "spec changed", "+0.0500", "0.01"} {
		if !strings.Contains(html, want) {
			t.Fatalf("diff html missing %q", want)
		}
	}
}

func TestLossChartDegenerate(t *testing.T) {
	// Single point and flat loss must not divide by zero.
	if svg := lossChart([]dnn.LogEntry{{Iter: 5, Loss: 1}}, 200, 100); !strings.Contains(svg, "<svg") {
		t.Fatal("single-point chart failed")
	}
	flat := []dnn.LogEntry{{Iter: 1, Loss: 2}, {Iter: 2, Loss: 2}}
	if svg := lossChart(flat, 200, 100); !strings.Contains(svg, "polyline") {
		t.Fatal("flat chart failed")
	}
	if svg := lossChart(nil, 200, 100); svg != "" {
		t.Fatal("empty log must render nothing")
	}
}

func TestWeightHeatmap(t *testing.T) {
	m := tensor.MustFromSlice(2, 3, []float32{-1, 0, 1, 0.5, -0.5, 0})
	svg := WeightHeatmap(m, "ip1")
	for _, want := range []string{"<svg", "ip1 (2x3)", "<rect"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("heatmap missing %q", want)
		}
	}
	if WeightHeatmap(tensor.NewMatrix(0, 0), "empty") != "" {
		t.Fatal("empty matrix must render nothing")
	}
	// Large matrices downsample rather than exploding the SVG.
	big := tensor.NewMatrix(512, 512)
	svg = WeightHeatmap(big, "big")
	if n := strings.Count(svg, "<rect"); n > 64*64 {
		t.Fatalf("heatmap not downsampled: %d cells", n)
	}
}

func TestDivergingColor(t *testing.T) {
	if divergingColor(0) != "#ffffff" {
		t.Fatalf("zero = %s", divergingColor(0))
	}
	if divergingColor(1) != "#b3261e" {
		t.Fatalf("pos = %s", divergingColor(1))
	}
	if divergingColor(-1) != "#2654ab" {
		t.Fatalf("neg = %s", divergingColor(-1))
	}
	if divergingColor(5) != divergingColor(1) {
		t.Fatal("overflow must clamp")
	}
}

func TestHeatmapPage(t *testing.T) {
	m := tensor.MustFromSlice(1, 2, []float32{1, -1})
	html, err := HeatmapPage("weights", []string{WeightHeatmap(m, "a"), WeightHeatmap(m, "b")})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(html, "<svg") != 2 {
		t.Fatal("page must embed both heatmaps")
	}
}
