package lint

import "testing"

// Each analyzer is exercised on embedded fixture sources with at least one
// true positive, one suppressed case, and one clean case. Fixtures under
// modelhub/internal/... are subject to the library-package rules; the
// deliberately seeded violations (copied mutex, dropped error, map-order
// float sum, bare goroutine, stdout write) must all be detected.

func TestLocksafe(t *testing.T) {
	cases := []struct {
		name           string
		path           string
		src            string
		want           []string
		wantSuppressed int
	}{
		{
			name: "copied mutex value",
			path: "modelhub/internal/fix",
			src: `package fix

import "sync"

var mu sync.Mutex

// Grab takes a copy of the global lock — a seeded violation.
func Grab() {
	mu2 := mu
	mu2.Lock()
	mu2.Unlock()
}
`,
			want: []string{"assignment copies lock value"},
		},
		{
			name: "copied struct embedding waitgroup",
			path: "modelhub/internal/fix",
			src: `package fix

import "sync"

type pool struct {
	wg sync.WaitGroup
}

// Use passes the pool by value.
func Use(p pool) {}
`,
			want: []string{"by-value parameter contains sync.WaitGroup"},
		},
		{
			name: "lock without unlock",
			path: "modelhub/internal/fix",
			src: `package fix

import "sync"

var mu sync.Mutex

// Leak locks and never unlocks.
func Leak() {
	mu.Lock()
}
`,
			want: []string{"never Unlocked"},
		},
		{
			name: "rlock needs runlock",
			path: "modelhub/internal/fix",
			src: `package fix

import "sync"

var mu sync.RWMutex

// Leak read-locks and write-unlocks: the read lock leaks.
func Leak() {
	mu.RLock()
	mu.Unlock()
}
`,
			want: []string{"never RUnlocked"},
		},
		{
			name: "channel send while holding lock",
			path: "modelhub/internal/fix",
			src: `package fix

import "sync"

var (
	mu sync.Mutex
	ch = make(chan int, 1)
)

// Send blocks on a channel while holding mu.
func Send() {
	mu.Lock()
	ch <- 1
	mu.Unlock()
}
`,
			want: []string{"channel send while holding mu"},
		},
		{
			name: "wait while holding lock",
			path: "modelhub/internal/fix",
			src: `package fix

import "sync"

var mu sync.Mutex

// Wait waits on a WaitGroup under mu.
func Wait(wg *sync.WaitGroup) {
	mu.Lock()
	wg.Wait()
	mu.Unlock()
}
`,
			want: []string{"sync wait on wg while holding mu"},
		},
		{
			name: "branch unlock before receive is clean",
			path: "modelhub/internal/fix",
			src: `package fix

import "sync"

var (
	mu   sync.Mutex
	done = make(chan struct{})
)

// Flight mirrors the single-flight pattern: unlock, then block.
func Flight(waiting bool) {
	mu.Lock()
	if waiting {
		mu.Unlock()
		<-done
		return
	}
	mu.Unlock()
}
`,
			want: nil,
		},
		{
			name: "suppressed copy",
			path: "modelhub/internal/fix",
			src: `package fix

import "sync"

var mu sync.Mutex

// Snapshot deliberately copies a never-used lock.
func Snapshot() {
	//mhlint:ignore locksafe fixture demonstrating a justified ignore
	mu2 := mu
	mu2.Lock()
	mu2.Unlock()
}
`,
			want:           nil,
			wantSuppressed: 1,
		},
		{
			name: "clean locking",
			path: "modelhub/internal/fix",
			src: `package fix

import "sync"

var mu sync.Mutex

// Good locks with a deferred unlock and passes locks by pointer.
func Good(other *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
	_ = other
}
`,
			want: nil,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, analyzerLocksafe, c.path, c.src), c.want, c.wantSuppressed)
		})
	}
}

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
			wantFindings(t, runFixture(t, analyzerErrcheck, c.path, c.src), c.want, c.wantSuppressed)
		})
	}
}

// TestGohygiene covers goroutine hygiene in library code: goroleak's body
// rule and apihygiene's time.Sleep rule.
func TestGohygiene(t *testing.T) {
	cases := []struct {
		name           string
		analyzer       *Analyzer
		path           string
		src            string
		want           []string
		wantSuppressed int
	}{
		{
			name:     "bare goroutine",
			analyzer: analyzerGoroleak,
			path:     "modelhub/internal/fix",
			src: `package fix

var x int

// Fire leaks an unjoinable goroutine.
func Fire() {
	go func() { x++ }()
}
`,
			want: []string{"bare goroutine launch"},
		},
		{
			name:     "waitgroup goroutine is clean",
			analyzer: analyzerGoroleak,
			path:     "modelhub/internal/fix",
			src: `package fix

import "sync"

// Join runs one joined worker.
func Join() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}
`,
			want: nil,
		},
		{
			name:     "named closure resolved through assignment",
			analyzer: analyzerGoroleak,
			path:     "modelhub/internal/fix",
			src: `package fix

import "sync"

// Pool launches a named closure that joins via the WaitGroup.
func Pool() {
	var wg sync.WaitGroup
	run := func() { defer wg.Done() }
	wg.Add(1)
	go run()
	wg.Wait()
}
`,
			want: nil,
		},
		{
			name:     "same-package function body resolved",
			analyzer: analyzerGoroleak,
			path:     "modelhub/internal/fix",
			src: `package fix

var x int

func work() { x++ }

// Fire launches a function whose body has no completion mechanism.
func Fire() {
	go work()
}
`,
			want: []string{"bare goroutine launch"},
		},
		{
			name:     "sleep synchronization",
			analyzer: analyzerAPIHygiene,
			path:     "modelhub/internal/fix",
			src: `package fix

import "time"

// Settle sleeps instead of synchronizing.
func Settle() {
	time.Sleep(10 * time.Millisecond)
}
`,
			want: []string{"time.Sleep in library code"},
		},
		{
			name:     "suppressed sleep",
			analyzer: analyzerAPIHygiene,
			path:     "modelhub/internal/fix",
			src: `package fix

import "time"

// Backoff sleeps deliberately between retries.
func Backoff() {
	time.Sleep(time.Second) //mhlint:ignore apihygiene fixture retry backoff is a real delay, not synchronization
}
`,
			want:           nil,
			wantSuppressed: 1,
		},
		{
			name:     "launch in a package-level literal",
			analyzer: analyzerGoroleak,
			path:     "modelhub/internal/fix",
			src: `package fix

var x int

var fire = func() { go func() { x++ }() }
`,
			want: []string{"bare goroutine launch"},
		},
		{
			name:     "sleep in a package-level literal",
			analyzer: analyzerAPIHygiene,
			path:     "modelhub/internal/fix",
			src: `package fix

import "time"

var settle = func() { time.Sleep(time.Millisecond) }
`,
			want: []string{"time.Sleep in library code"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, c.analyzer, c.path, c.src), c.want, c.wantSuppressed)
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
			wantFindings(t, runFixture(t, analyzerDetpath, c.path, c.src), c.want, c.wantSuppressed)
		})
	}
}

func TestAPIHygiene(t *testing.T) {
	cases := []struct {
		name           string
		path           string
		src            string
		want           []string
		wantSuppressed int
	}{
		{
			name: "stdout write",
			path: "modelhub/internal/fix",
			src: `package fix

import "fmt"

// Shout writes to stdout from a library.
func Shout() {
	fmt.Println("hi")
}
`,
			want: []string{"fmt.Println writes to stdout"},
		},
		{
			name: "fatal and exit",
			path: "modelhub/internal/fix",
			src: `package fix

import (
	"log"
	"os"
)

// Die kills the whole process.
func Die() {
	log.Fatalf("no")
	os.Exit(1)
}
`,
			want: []string{"log.Fatalf exits the process", "os.Exit exits the process"},
		},
		{
			name: "undocumented panic",
			path: "modelhub/internal/fix",
			src: `package fix

// Bad checks the sign without telling anyone what happens.
func Bad(n int) {
	if n < 0 {
		panic("negative")
	}
}
`,
			want: []string{"panic outside a documented invariant check"},
		},
		{
			name: "documented panic is clean",
			path: "modelhub/internal/fix",
			src: `package fix

// Must panics if n is negative — a documented invariant check.
func Must(n int) int {
	if n < 0 {
		panic("negative")
	}
	return n
}
`,
			want: nil,
		},
		{
			name: "suppressed exit",
			path: "modelhub/internal/fix",
			src: `package fix

import "os"

// Abort exits.
func Abort() {
	os.Exit(3) //mhlint:ignore apihygiene fixture demonstrating a justified exit
}
`,
			want:           nil,
			wantSuppressed: 1,
		},
		{
			name: "cmd packages are out of scope",
			path: "modelhub/cmd/fix",
			src: `package fix

import "fmt"

// Shout is fine in a binary.
func Shout() {
	fmt.Println("hi")
}
`,
			want: nil,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, analyzerAPIHygiene, c.path, c.src), c.want, c.wantSuppressed)
		})
	}
}
