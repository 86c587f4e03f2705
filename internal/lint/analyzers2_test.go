package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// This file tests the five gen-2 CFG/dataflow analyzers. Each gets
// positive fixtures (the invariant violated), negative fixtures (the
// idiomatic repair), and a suppression check, including seeded
// regressions of real past bug classes: the pre-PR-7 racy Engine.Workers
// field (atomicfield) and an unjoined per-request goroutine (goroleak).

// fixtureChainImporter serves previously type-checked fixture packages
// before falling back to the stdlib source importer, so fixtures can
// import module-internal stubs (e.g. a fake modelhub/internal/obs).
type fixtureChainImporter struct {
	pkgs map[string]*types.Package
}

func (i *fixtureChainImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.pkgs[path]; ok {
		return p, nil
	}
	return fixImp.Import(path)
}

// loadFixtureChain type-checks a sequence of single-file packages in
// order, each able to import the ones before it, and returns the last as
// the package under analysis.
func loadFixtureChain(t *testing.T, pkgs [][2]string) *Package {
	t.Helper()
	fixOnce.Do(func() {
		fixFset = token.NewFileSet()
		fixImp = importer.ForCompiler(fixFset, "source", nil)
	})
	imp := &fixtureChainImporter{pkgs: map[string]*types.Package{}}
	var last *Package
	for i, pc := range pkgs {
		path, src := pc[0], pc[1]
		f, err := parser.ParseFile(fixFset, fmt.Sprintf("%s_%d.go", t.Name(), i), src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse fixture %s: %v", path, err)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fixFset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("type-check fixture %s: %v", path, err)
		}
		imp.pkgs[path] = tpkg
		last = &Package{
			Module: "modelhub",
			Path:   path,
			Fset:   fixFset,
			Files:  []*ast.File{f},
			Types:  tpkg,
			Info:   info,
		}
	}
	return last
}

// obsStub is a miniature modelhub/internal/obs with the span API surface
// spanend tracks.
const obsStub = `package obs

import "context"

// Span is a stub of the obs span.
type Span struct{ name string }

// TraceID is a stub trace identifier.
type TraceID [16]byte

// SpanID is a stub span identifier.
type SpanID [8]byte

// Attr is a stub span attribute.
type Attr struct{ Key, Value string }

// End closes the span.
func (s *Span) End() {}

// SetAttr annotates the span.
func (s *Span) SetAttr(k, v string) {}

// SetAttrInt annotates the span with an integer.
func (s *Span) SetAttrInt(k string, v int64) {}

// Event records a point-in-time event on the span.
func (s *Span) Event(name string, attrs ...Attr) {}

// SetError marks the span failed.
func (s *Span) SetError() {}

// TraceID returns the span's trace ID.
func (s *Span) TraceID() TraceID { return TraceID{} }

// SpanID returns the span's ID.
func (s *Span) SpanID() SpanID { return SpanID{} }

// Start opens a child span.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, &Span{name: name}
}

// StartRoot opens a root span.
func StartRoot(name string) *Span { return &Span{name: name} }

// StartRemote continues a trace started in another process.
func StartRemote(ctx context.Context, name string, tid TraceID, parent SpanID, sampled bool) (context.Context, *Span) {
	return ctx, &Span{name: name}
}
`

func runSpanendFixture(t *testing.T, src string) Result {
	t.Helper()
	pkg := loadFixtureChain(t, [][2]string{
		{"modelhub/internal/obs", obsStub},
		{"modelhub/internal/fix", src},
	})
	return Run([]*Package{pkg}, []*Analyzer{analyzerSpanend})
}

func TestSpanendEarlyReturnLeaks(t *testing.T) {
	res := runSpanendFixture(t, `package fix

import (
	"context"
	"errors"

	"modelhub/internal/obs"
)

func Work(ctx context.Context, fail bool) error {
	ctx, span := obs.Start(ctx, "work")
	_ = ctx
	if fail {
		return errors.New("early") // span not ended on this path
	}
	span.End()
	return nil
}
`)
	wantFindings(t, res, []string{"span span may reach a return without End()"}, 0)
}

func TestSpanendBranchWithoutEnd(t *testing.T) {
	res := runSpanendFixture(t, `package fix

import "modelhub/internal/obs"

func Partial(v bool) {
	span := obs.StartRoot("p")
	if v {
		span.End()
	}
}
`)
	wantFindings(t, res, []string{"span span may reach a return without End()"}, 0)
}

func TestSpanendDeferIsClean(t *testing.T) {
	res := runSpanendFixture(t, `package fix

import (
	"context"
	"errors"

	"modelhub/internal/obs"
)

func Work(ctx context.Context, fail bool) error {
	ctx, span := obs.Start(ctx, "work")
	defer span.End()
	_ = ctx
	if fail {
		return errors.New("early")
	}
	return nil
}
`)
	wantFindings(t, res, nil, 0)
}

func TestSpanendEscapeTransfersOwnership(t *testing.T) {
	res := runSpanendFixture(t, `package fix

import "modelhub/internal/obs"

// Returning the span hands the End obligation to the caller.
func Open() *obs.Span {
	span := obs.StartRoot("open")
	return span
}

// Capturing the span in a closure transfers ownership too.
func Closure() func() {
	span := obs.StartRoot("closure")
	return func() { span.End() }
}
`)
	wantFindings(t, res, nil, 0)
}

func TestSpanendAnnotatedSpanStillNeedsEnd(t *testing.T) {
	// Annotation methods must not count as an escape: a span that is
	// decorated with attributes and events but never Ended is still leaked.
	res := runSpanendFixture(t, `package fix

import (
	"context"
	"errors"

	"modelhub/internal/obs"
)

func Work(ctx context.Context, fail bool) error {
	ctx, span := obs.Start(ctx, "work")
	_ = ctx
	span.SetAttr("k", "v")
	span.SetAttrInt("n", 1)
	span.Event("step", obs.Attr{Key: "a", Value: "b"})
	if fail {
		span.SetError()
		return errors.New("early") // annotated but not ended
	}
	span.End()
	return nil
}
`)
	wantFindings(t, res, []string{"span span may reach a return without End()"}, 0)
}

func TestSpanendAnnotatedWithDeferIsClean(t *testing.T) {
	res := runSpanendFixture(t, `package fix

import (
	"context"

	"modelhub/internal/obs"
)

func Work(ctx context.Context) {
	ctx, span := obs.Start(ctx, "work")
	defer span.End()
	_ = ctx
	span.SetAttr("k", "v")
	_ = span.TraceID()
	_ = span.SpanID()
}
`)
	wantFindings(t, res, nil, 0)
}

func TestSpanendStartRemoteTracked(t *testing.T) {
	res := runSpanendFixture(t, `package fix

import (
	"context"

	"modelhub/internal/obs"
)

func Handle(ctx context.Context, tid obs.TraceID, parent obs.SpanID) {
	ctx, span := obs.StartRemote(ctx, "req", tid, parent, true)
	_ = ctx
	span.SetAttr("http.method", "GET")
}
`)
	wantFindings(t, res, []string{"span span may reach a return without End()"}, 0)
}

func TestSpanendSuppressed(t *testing.T) {
	res := runSpanendFixture(t, `package fix

import "modelhub/internal/obs"

func Audited(v bool) {
	//mhlint:ignore spanend intentionally open on the failure path
	span := obs.StartRoot("audited")
	if v {
		span.End()
	}
}
`)
	wantFindings(t, res, nil, 1)
}

func TestGoroleakHandlerRegression(t *testing.T) {
	// Seeded regression: the unjoined per-request goroutine shape that once
	// shipped in a hub handler.
	res := runFixture(t, analyzerGoroleak, "modelhub/internal/fix", `package fix

import "net/http"

func work() {}

func Handle(w http.ResponseWriter, r *http.Request) {
	go work() // one goroutine per request, nothing joins it
	w.WriteHeader(http.StatusAccepted)
}
`)
	// work's empty body also fails the body rule at the same launch.
	wantFindings(t, res, []string{"bare goroutine launch", "goroutine launched in request scope with no visible bound"}, 0)
}

func TestGoroleakLoopLaunch(t *testing.T) {
	res := runFixture(t, analyzerGoroleak, "modelhub/internal/fix", `package fix

func work() {}

func Fan(items []int) {
	for range items {
		go work()
	}
}
`)
	wantFindings(t, res, []string{"bare goroutine launch", "goroutine launched in loop scope with no visible bound"}, 0)
}

func TestGoroleakWaitGroupIsClean(t *testing.T) {
	res := runFixture(t, analyzerGoroleak, "modelhub/internal/fix", `package fix

import "sync"

func work() {}

func Join(items []int) {
	var wg sync.WaitGroup
	for range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

func DeferredJoin(items []int) {
	var wg sync.WaitGroup
	defer wg.Wait()
	for range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
}
`)
	wantFindings(t, res, nil, 0)
}

func TestGoroleakSemaphoreIsClean(t *testing.T) {
	res := runFixture(t, analyzerGoroleak, "modelhub/internal/fix", `package fix

func work() {}

func Sem(items []int) {
	sem := make(chan struct{}, 4)
	for range items {
		sem <- struct{}{}
		go func() {
			defer func() { <-sem }()
			work()
		}()
	}
}
`)
	wantFindings(t, res, nil, 0)
}

func TestGoroleakPoolWorkerIsClean(t *testing.T) {
	res := runFixture(t, analyzerGoroleak, "modelhub/internal/fix", `package fix

func Pool(tasks chan func()) {
	for i := 0; i < 4; i++ {
		go func() {
			for f := range tasks {
				f()
			}
		}()
	}
}

// The worker body may also live in a named function the go statement calls.
func drain(tasks chan func()) {
	for f := range tasks {
		f()
	}
}

func NamedPool(tasks chan func()) {
	for i := 0; i < 4; i++ {
		go drain(tasks)
	}
}
`)
	wantFindings(t, res, nil, 0)
}

func TestGoroleakSingleLaunchIsClean(t *testing.T) {
	// A one-off goroutine outside loops and handlers is clean of the
	// launch-site rule: cardinality is 1. Only the body rule reports it.
	res := runFixture(t, analyzerGoroleak, "modelhub/internal/fix", `package fix

func work() {}

func Once() {
	go work()
}
`)
	wantFindings(t, res, []string{"bare goroutine launch"}, 0)
}

func TestGoroleakSuppressed(t *testing.T) {
	res := runFixture(t, analyzerGoroleak, "modelhub/internal/fix", `package fix

func work() {}

func Fan(items []int) {
	for range items {
		//mhlint:ignore goroleak bounded by caller contract in this fixture
		go work()
	}
}
`)
	// One directive covers both the body and the launch-site finding.
	wantFindings(t, res, nil, 2)
}

func TestAtomicfieldMixedAccessRegression(t *testing.T) {
	// Seeded regression: the pre-PR-7 Engine.Workers shape — a counter
	// updated atomically by workers but read plainly by callers.
	res := runFixture(t, analyzerAtomicfield, "modelhub/internal/fix", `package fix

import "sync/atomic"

type Engine struct {
	workers int64
}

func (e *Engine) Inc() {
	atomic.AddInt64(&e.workers, 1)
}

func (e *Engine) Racy() int64 {
	return e.workers // plain read of an atomically-updated field
}
`)
	wantFindings(t, res, []string{"workers is accessed atomically"}, 0)
}

func TestAtomicfieldAllAtomicIsClean(t *testing.T) {
	res := runFixture(t, analyzerAtomicfield, "modelhub/internal/fix", `package fix

import "sync/atomic"

type Engine struct {
	workers int64
}

func (e *Engine) Inc() {
	atomic.AddInt64(&e.workers, 1)
}

func (e *Engine) Load() int64 {
	return atomic.LoadInt64(&e.workers)
}
`)
	wantFindings(t, res, nil, 0)
}

func TestAtomicfieldTypedAtomicIsClean(t *testing.T) {
	// The idiomatic repair: a typed atomic makes plain access impossible.
	res := runFixture(t, analyzerAtomicfield, "modelhub/internal/fix", `package fix

import "sync/atomic"

type Engine struct {
	workers atomic.Int64
}

func (e *Engine) Inc()        { e.workers.Add(1) }
func (e *Engine) Load() int64 { return e.workers.Load() }
`)
	wantFindings(t, res, nil, 0)
}

// TestAtomicfieldCopies: copies of typed atomics are locksafe's no-copy rule.
func TestAtomicfieldCopies(t *testing.T) {
	res := runFixture(t, analyzerLocksafe, "modelhub/internal/fix", `package fix

import "sync/atomic"

type Gauge struct {
	v atomic.Int64
}

func ByValueParam(g Gauge) {} // by-value parameter

func Copy(g *Gauge) {
	snapshot := *g // assignment copy
	_ = snapshot.v.Load()
}
`)
	wantFindings(t, res, []string{
		"by-value parameter contains atomic.Int64",
		"assignment copies atomic value",
	}, 0)
}

func TestAtomicfieldSuppressed(t *testing.T) {
	res := runFixture(t, analyzerAtomicfield, "modelhub/internal/fix", `package fix

import "sync/atomic"

type Engine struct {
	workers int64
}

func (e *Engine) Inc() {
	atomic.AddInt64(&e.workers, 1)
}

func (e *Engine) Snapshot() int64 {
	//mhlint:ignore atomicfield read under the engine mutex in this fixture
	return e.workers
}
`)
	wantFindings(t, res, nil, 1)
}

func TestCtxflowFreshRootAndObliviousCalls(t *testing.T) {
	res := runFixture(t, analyzerCtxflow, "modelhub/internal/fix", `package fix

import (
	"context"
	"net/http"
)

func Fetch(ctx context.Context, url string) {
	_ = context.Background() // fresh root under a live ctx
	resp, err := http.Get(url)
	if err == nil {
		resp.Body.Close()
	}
}
`)
	wantFindings(t, res, []string{
		"context.Background inside a function holding a request context; derive from ctx",
		"net/http.Get ignores the in-scope request context (ctx)",
	}, 0)
}

func TestCtxflowHandlerCarrier(t *testing.T) {
	res := runFixture(t, analyzerCtxflow, "modelhub/internal/fix", `package fix

import "net/http"

func Proxy(w http.ResponseWriter, r *http.Request) {
	resp, err := http.Get("http://upstream/health")
	if err == nil {
		resp.Body.Close()
	}
}
`)
	wantFindings(t, res, []string{"ignores the in-scope request context (r.Context())"}, 0)
}

func TestCtxflowClosureInheritsContext(t *testing.T) {
	res := runFixture(t, analyzerCtxflow, "modelhub/internal/fix", `package fix

import (
	"context"
	"net/http"
)

func Retry(ctx context.Context) {
	attempt := func() {
		resp, err := http.Get("http://x") // ctx is lexically in scope
		if err == nil {
			resp.Body.Close()
		}
	}
	attempt()
}
`)
	wantFindings(t, res, []string{"ignores the in-scope request context (ctx)"}, 0)
}

func TestCtxflowNoCarrierIsClean(t *testing.T) {
	// Without a context in scope there is nothing to plumb: growing a ctx
	// parameter is an API decision, not a lint fix.
	res := runFixture(t, analyzerCtxflow, "modelhub/internal/fix", `package fix

import "net/http"

func Poll(url string) {
	resp, err := http.Get(url)
	if err == nil {
		resp.Body.Close()
	}
}
`)
	wantFindings(t, res, nil, 0)
}

func TestCtxflowHeaderGetIsNotHTTPGet(t *testing.T) {
	// Regression: (http.Header).Get must not alias net/http.Get through
	// callee resolution.
	res := runFixture(t, analyzerCtxflow, "modelhub/internal/fix", `package fix

import (
	"context"
	"net/http"
)

func Inspect(ctx context.Context, r *http.Response) string {
	return r.Header.Get("Content-Range")
}
`)
	wantFindings(t, res, nil, 0)
}

func TestCtxflowCtxAwareIsClean(t *testing.T) {
	res := runFixture(t, analyzerCtxflow, "modelhub/internal/fix", `package fix

import (
	"context"
	"net/http"
)

func Fetch(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}
`)
	wantFindings(t, res, nil, 0)
}

func TestCtxflowSuppressed(t *testing.T) {
	res := runFixture(t, analyzerCtxflow, "modelhub/internal/fix", `package fix

import "context"

func Detach(ctx context.Context) context.Context {
	//mhlint:ignore ctxflow audit trail must survive request cancellation
	return context.Background()
}
`)
	wantFindings(t, res, nil, 1)
}

func TestDetpathUnsortedReturn(t *testing.T) {
	res := runFixture(t, analyzerDetpath, "modelhub/internal/tensor", `package tensor

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
	res := runFixture(t, analyzerDetpath, "modelhub/internal/dnn", `package dnn

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
	res := runFixture(t, analyzerDetpath, "modelhub/internal/tensor", `package tensor

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
	res := runFixture(t, analyzerDetpath, "modelhub/internal/pas", `package pas

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
	res := runFixture(t, analyzerDetpath, "modelhub/internal/tensor", `package tensor

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
	res := runFixture(t, analyzerDetpath, "modelhub/internal/hub", `package hub

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
	res := runFixture(t, analyzerDetpath, "modelhub/internal/tensor", `package tensor

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

func TestStaleDirectiveOnFullRun(t *testing.T) {
	pkg := loadFixture(t, "modelhub/internal/fix", `package fix

//mhlint:ignore goroleak historical justification that no longer applies
var V = 1
`)
	res := Run([]*Package{pkg}, All())
	wantFindings(t, res, []string{"stale ignore directive: no goroleak finding"}, 0)
}

func TestStaleDirectiveSkippedOnPartialRun(t *testing.T) {
	pkg := loadFixture(t, "modelhub/internal/fix", `package fix

//mhlint:ignore goroleak undecidable when goroleak does not run
var V = 1
`)
	res := Run([]*Package{pkg}, []*Analyzer{analyzerCtxflow})
	wantFindings(t, res, nil, 0)
}

func TestStaleWildcardDirective(t *testing.T) {
	src := `package fix

//mhlint:ignore * blanket excuse covering nothing
var V = 1
`
	// On a full run an unused wildcard is stale; on a partial run its
	// staleness is undecidable and it is left alone.
	res := Run([]*Package{loadFixture(t, "modelhub/internal/fix", src)}, All())
	wantFindings(t, res, []string{"stale ignore directive: no * finding"}, 0)
	res = Run([]*Package{loadFixture(t, "modelhub/internal/fix2", src)}, []*Analyzer{analyzerCtxflow})
	wantFindings(t, res, nil, 0)
}

func TestUnknownAnalyzerDirective(t *testing.T) {
	pkg := loadFixture(t, "modelhub/internal/fix", `package fix

//mhlint:ignore gorleak typo for goroleak
var V = 1
`)
	res := Run([]*Package{pkg}, []*Analyzer{analyzerCtxflow})
	wantFindings(t, res, []string{`ignore directive names unknown analyzer "gorleak"`}, 0)
}

func TestUsedDirectiveIsNotStale(t *testing.T) {
	pkg := loadFixture(t, "modelhub/internal/fix", `package fix

func work() {}

func Fan(items []int) {
	for range items {
		//mhlint:ignore goroleak bounded by fixture contract
		go work()
	}
}
`)
	res := Run([]*Package{pkg}, All())
	// What must NOT appear is a stale-directive finding for the used
	// goroleak ignore.
	for _, f := range res.Findings {
		if f.Analyzer == "mhlint" {
			t.Fatalf("used directive reported stale:\n%s", formatFindings(res.Findings))
		}
	}
	found := false
	for _, f := range res.Suppressed {
		if f.Analyzer == "goroleak" {
			found = true
		}
	}
	if !found {
		t.Fatalf("goroleak finding not suppressed:\n%s", formatFindings(res.Suppressed))
	}
}

// TestSuppressedOutputDeterministic locks the ordering contract for
// -suppressed output: position-sorted, stable across runs.
func TestSuppressedOutputDeterministic(t *testing.T) {
	src := `package fix

func work() {}

func Fan(items []int) {
	for range items {
		//mhlint:ignore goroleak first
		go work()
	}
	for range items {
		//mhlint:ignore goroleak second
		go work()
	}
}
`
	var prev []string
	for i := 0; i < 3; i++ {
		res := Run([]*Package{loadFixture(t, fmt.Sprintf("modelhub/internal/fix%d", i), src)}, All())
		var got []string
		for _, f := range res.Suppressed {
			got = append(got, fmt.Sprintf("%d:%d %s %s", f.Pos.Line, f.Pos.Column, f.Analyzer, f.SuppressedBy))
		}
		// Each launch has a body and a launch-site finding.
		if len(got) != 4 || !strings.Contains(got[1], "first") || !strings.Contains(got[2], "second") {
			t.Fatalf("run %d: suppressed output %v, want position-sorted pairs", i, got)
		}
		if prev != nil && !equalStrings(prev, got) {
			t.Fatalf("run %d: order changed: %v vs %v", i, prev, got)
		}
		prev = got
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
