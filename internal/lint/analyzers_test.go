package lint

import "testing"

// Each analyzer is exercised on embedded fixture sources with at least one
// true positive, one suppressed case, and one clean case, plus the shape of
// the bug it caught in the project's history. Fixtures under
// modelhub/internal/... are subject to the library-package rules.

func TestErrcheck(t *testing.T) {
	cases := []struct {
		name           string
		path           string
		src            string
		want           []string
		wantSuppressed int
	}{
		{
			name: "dropped error statement",
			path: "modelhub/internal/fix",
			src: `package fix

import "os"

// Drop discards os.Remove's error — a seeded violation.
func Drop() {
	os.Remove("x")
}
`,
			want: []string{"unchecked error return from os.Remove"},
		},
		{
			name: "blank error assignment",
			path: "modelhub/internal/fix",
			src: `package fix

import "os"

// Blank discards the error with _.
func Blank() {
	_ = os.Remove("x")
}
`,
			want: []string{"discarded with _"},
		},
		{
			name: "blank error in tuple",
			path: "modelhub/internal/fix",
			src: `package fix

import "os"

// Open drops the error half of the tuple.
func Open() *os.File {
	f, _ := os.Open("x")
	return f
}
`,
			want: []string{"error result of os.Open discarded with _"},
		},
		{
			name: "errorf without wrap",
			path: "modelhub/internal/fix",
			src: `package fix

import (
	"errors"
	"fmt"
)

var errBase = errors.New("base")

// Wrap loses the error chain by formatting with %v.
func Wrap() error {
	return fmt.Errorf("context: %v", errBase)
}
`,
			want: []string{"no %w verb"},
		},
		{
			name: "errorf with wrap is clean",
			path: "modelhub/internal/fix",
			src: `package fix

import (
	"errors"
	"fmt"
)

var errBase = errors.New("base")

// Wrap keeps the chain: the sentinel rides %w.
func Wrap(err error) error {
	return fmt.Errorf("%w: detail: %v", errBase, err)
}
`,
			want: nil,
		},
		{
			name: "builder writes are exempt",
			path: "modelhub/internal/fix",
			src: `package fix

import (
	"bytes"
	"fmt"
	"strings"
)

// Render uses error-free-by-contract writers.
func Render() string {
	var b strings.Builder
	b.WriteString("x")
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%d", 1)
	return b.String() + buf.String()
}
`,
			want: nil,
		},
		{
			name: "defer close is exempt",
			path: "modelhub/internal/fix",
			src: `package fix

import "os"

// Read uses the read-path defer-close idiom.
func Read() error {
	f, err := os.Open("x")
	if err != nil {
		return err
	}
	defer f.Close()
	return nil
}
`,
			want: nil,
		},
		{
			name: "suppressed drop",
			path: "modelhub/internal/fix",
			src: `package fix

import "os"

// Cleanup ignores a best-effort removal.
func Cleanup() {
	os.Remove("x") //mhlint:ignore errcheck best-effort temp cleanup
}
`,
			want:           nil,
			wantSuppressed: 1,
		},
		{
			name: "discarded sort comparator error",
			path: "modelhub/internal/catalog",
			src: `package catalog

import "sort"

func lessValue(a, b any) (bool, error) { return false, nil }

// Sort orders rows by one column, dropping the comparison error: the
// catalog/query.go shape errcheck caught at the seed.
func Sort(out []map[string]any, col string) {
	sort.SliceStable(out, func(a, b int) bool {
		less, _ := lessValue(out[a][col], out[b][col])
		return less
	})
}
`,
			want: []string{"error result of modelhub/internal/catalog.lessValue discarded with _"},
		},
		{
			name: "unchecked close on a written file",
			path: "modelhub/internal/dlv",
			src: `package dlv

import (
	"fmt"
	"io"
	"os"
)

// writeRaw writes one weight file and drops Close's error on the write
// failure path: the dlv/commit.go shape errcheck caught at the seed.
func writeRaw(path string, w io.WriterTo) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
`,
			want: []string{"unchecked error return from (os.File).Close"},
		},
		{
			name: "non-library packages are out of scope",
			path: "modelhub/cmd/fix",
			src: `package fix

import "os"

// Drop is allowed in cmd/ packages.
func Drop() {
	os.Remove("x")
}
`,
			want: nil,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, c.path, c.src), c.want, c.wantSuppressed)
		})
	}
}

// TestFloatdet covers detpath's float-accumulation rule.
func TestFloatdet(t *testing.T) {
	cases := []struct {
		name           string
		path           string
		src            string
		want           []string
		wantSuppressed int
	}{
		{
			name: "map-order float sum",
			path: "modelhub/internal/tensor",
			src: `package tensor

// Sum accumulates in map order — a seeded violation.
func Sum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}
`,
			want: []string{"float accumulation into sum under map iteration order"},
		},
		{
			name: "x = x + v form",
			path: "modelhub/internal/dnn",
			src: `package dnn

// Total accumulates through plain assignment.
func Total(m map[string]float32) float32 {
	var total float32
	for _, v := range m {
		total = total + v
	}
	return total
}
`,
			want: []string{"float accumulation into total"},
		},
		{
			name: "loop-local accumulator is clean",
			path: "modelhub/internal/pas",
			src: `package pas

// Scale writes per-key results only.
func Scale(m map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, vs := range m {
		var s float64
		for _, v := range vs {
			s += v
		}
		out[k] = s
	}
	return out
}
`,
			want: nil,
		},
		{
			name: "integer accumulation is clean",
			path: "modelhub/internal/tensor",
			src: `package tensor

// Count sums exact integers; order cannot matter.
func Count(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
`,
			want: nil,
		},
		{
			name: "uncovered package is out of scope",
			path: "modelhub/internal/hub",
			src: `package hub

// Sum is outside the determinism contract.
func Sum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}
`,
			want: nil,
		},
		{
			name: "suppressed sum",
			path: "modelhub/internal/tensor",
			src: `package tensor

// Mean is display-only; determinism is waived on purpose here.
func Mean(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v //mhlint:ignore detpath fixture display-only statistic, never persisted
	}
	return sum / float64(len(m))
}
`,
			want:           nil,
			wantSuppressed: 1,
		},
		{
			name: "closure in the map-range body",
			path: "modelhub/internal/dnn",
			src: `package dnn

// Total accumulates through a closure that runs in iteration order.
func Total(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		add := func() { total += v }
		add()
	}
	return total
}
`,
			want: []string{"float accumulation into total under map iteration order"},
		},
		{
			name: "package-level literal",
			path: "modelhub/internal/tensor",
			src: `package tensor

var sum = func(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}
`,
			want: []string{"float accumulation into s under map iteration order"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, c.path, c.src), c.want, c.wantSuppressed)
		})
	}
}

func TestDetpathUnsortedReturn(t *testing.T) {
	res := runFixture(t, "modelhub/internal/tensor", `package tensor

func Keys(m map[string]float64) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
`)
	wantFindings(t, res, []string{"ks collects map keys/values in iteration order"}, 0)
}

func TestDetpathUnsortedRangeReplay(t *testing.T) {
	res := runFixture(t, "modelhub/internal/dnn", `package dnn

func Sum(m map[string]float64) float64 {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	var s float64
	for _, k := range ks {
		s += m[k]
	}
	return s
}
`)
	wantFindings(t, res, []string{"range over ks replays map iteration order"}, 0)
}

func TestDetpathSortedIsClean(t *testing.T) {
	res := runFixture(t, "modelhub/internal/tensor", `package tensor

import "sort"

func Keys(m map[string]float64) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func Sum(m map[string]float64) float64 {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	var s float64
	for _, k := range ks {
		s += m[k]
	}
	return s
}
`)
	wantFindings(t, res, nil, 0)
}

func TestDetpathOrderedSink(t *testing.T) {
	res := runFixture(t, "modelhub/internal/pas", `package pas

import (
	"fmt"
	"strings"
)

func Dump(m map[string]int) string {
	var b strings.Builder
	for k, v := range m {
		fmt.Fprintf(&b, "%s=%d\n", k, v)
	}
	return b.String()
}

func Concat(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k)
	}
	return b.String()
}
`)
	wantFindings(t, res, []string{
		"fmt.Fprintf to &b inside a map range emits in iteration order",
		"write to b inside a map range emits in iteration order",
	}, 0)
}

func TestDetpathLoopLocalIsClean(t *testing.T) {
	// A slice declared inside the range body is rebuilt every iteration
	// and cannot carry iteration order across the loop.
	res := runFixture(t, "modelhub/internal/tensor", `package tensor

func Local(m map[string][]float64) int {
	n := 0
	for _, vs := range m {
		var sq []float64
		for _, v := range vs {
			sq = append(sq, v*v)
		}
		n += len(sq)
	}
	return n
}
`)
	wantFindings(t, res, nil, 0)
}

func TestDetpathScopedToDeterministicPackages(t *testing.T) {
	// The same collect-without-sort shape outside tensor/dnn/pas is fine:
	// only those packages carry the bit-identical contract.
	res := runFixture(t, "modelhub/internal/hub", `package hub

func Keys(m map[string]float64) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
`)
	wantFindings(t, res, nil, 0)
}

func TestDetpathSuppressed(t *testing.T) {
	res := runFixture(t, "modelhub/internal/tensor", `package tensor

func Keys(m map[string]float64) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	//mhlint:ignore detpath caller sorts; order is documented as unspecified
	return ks
}
`)
	wantFindings(t, res, nil, 1)
}

// TestDetpathDeltaPairsRegression is the pas/store.go delta-pair bug
// detpath caught at the seed: pairs collected from a map range inside an
// outer loop, extended after it, then ranged over to build delta edges
// whose order reached the archive bytes.
func TestDetpathDeltaPairsRegression(t *testing.T) {
	res := runFixture(t, "modelhub/internal/pas", `package pas

type ref struct {
	snap int
	name string
}

func Pairs(snaps []map[string]int, extra [][2]ref, edge func(a, b ref)) {
	var pairs [][2]ref
	for i := 1; i < len(snaps); i++ {
		prev, cur := snaps[i-1], snaps[i]
		for name := range cur {
			if _, ok := prev[name]; ok {
				pairs = append(pairs, [2]ref{{i - 1, name}, {i, name}})
			}
		}
	}
	pairs = append(pairs, extra...)
	for _, p := range pairs {
		edge(p[0], p[1])
	}
}
`)
	wantFindings(t, res, []string{"range over pairs replays map iteration order"}, 0)
}
