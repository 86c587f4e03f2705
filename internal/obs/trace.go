package obs

import (
	"encoding/hex"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Distributed tracing rides the span layer: when tracing is enabled, every
// span carries a 128-bit trace ID and a 64-bit span ID, and a completed
// trace's spans are recorded into a bounded ring-buffer collector
// (collector.go) that /debug/traces and `dlv trace` read. The contract from
// PR 4 holds: with obs disabled a span site is one atomic load + a branch;
// with metrics but not tracing enabled, spans cost what they cost before;
// tracing adds ID generation and one record append per ended span.

// tracing gates trace-ID assignment and record collection. Tracing is only
// active when the metrics gate is also on (spans do not exist otherwise).
var tracing atomic.Bool

// EnableTracing turns trace collection on process-wide. Metrics must also be
// enabled (Enable) for spans — and therefore traces — to exist.
func EnableTracing() { tracing.Store(true) }

// DisableTracing turns trace collection off. Already-collected traces remain
// readable through Traces / TraceByID.
func DisableTracing() { tracing.Store(false) }

// TracingEnabled reports whether spans are being assigned trace IDs and
// recorded (both the metrics gate and the tracing gate are on).
func TracingEnabled() bool { return enabled.Load() && tracing.Load() }

// service names this process in exported span records ("dlv",
// "modelhub-server"); cross-process waterfalls group spans by it.
var service atomic.Pointer[string]

// SetService names this process in span records. Binaries call it once at
// startup; the default is empty.
func SetService(name string) { service.Store(&name) }

// Service returns the process's span-record service name.
func Service() string {
	if p := service.Load(); p != nil {
		return *p
	}
	return ""
}

// TraceID is a 128-bit trace identifier (W3C trace-context trace-id).
type TraceID [16]byte

// SpanID is a 64-bit span identifier (W3C trace-context parent-id).
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the trace ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the span ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID parses 32 lowercase hex digits into a TraceID. Upper-case
// digits and the all-zero ID are rejected, as W3C Trace Context requires.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 || !isLowerHex(s) {
		return t, fmt.Errorf("obs: trace id must be 32 lowercase hex digits, got %q", s)
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("obs: bad trace id %q: %w", s, err)
	}
	if t.IsZero() {
		return TraceID{}, fmt.Errorf("obs: all-zero trace id is invalid")
	}
	return t, nil
}

// ParseSpanID parses 16 lowercase hex digits into a SpanID. Upper-case
// digits and the all-zero ID are rejected.
func ParseSpanID(s string) (SpanID, error) {
	var id SpanID
	if len(s) != 16 || !isLowerHex(s) {
		return id, fmt.Errorf("obs: span id must be 16 lowercase hex digits, got %q", s)
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return SpanID{}, fmt.Errorf("obs: bad span id %q: %w", s, err)
	}
	if id.IsZero() {
		return SpanID{}, fmt.Errorf("obs: all-zero span id is invalid")
	}
	return id, nil
}

// idState seeds the lock-free splitmix64 ID generator. Seeded per process so
// concurrent client and server processes never collide.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano())*0x9e3779b97f4a7c15 ^ uint64(os.Getpid())<<32)
}

// rand64 advances the shared splitmix64 state by one step. Not
// cryptographic; IDs only need process-level uniqueness.
func rand64() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newTraceID generates a non-zero random trace ID.
func newTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		a, b := rand64(), rand64()
		for i := 0; i < 8; i++ {
			t[i] = byte(a >> (8 * i))
			t[8+i] = byte(b >> (8 * i))
		}
	}
	return t
}

// newSpanID generates a non-zero random span ID.
func newSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		a := rand64()
		for i := 0; i < 8; i++ {
			s[i] = byte(a >> (8 * i))
		}
	}
	return s
}

// Attr is one string key-value span attribute. Values are rendered to
// strings at set time so records marshal without reflection surprises.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Event is one timestamped point event on a span (a retry, a panic).
type Event struct {
	TimeUnixNano int64  `json:"time_unix_nano"`
	Name         string `json:"name"`
	Attrs        []Attr `json:"attrs,omitempty"`
}

// SpanRecord is the completed form of one span: the unit /debug/traces
// serves and the trace-export wire format. ParentID is empty for roots (or
// names a remote parent), so a waterfall renders directly from the parent /
// start / duration triple.
type SpanRecord struct {
	TraceID       string  `json:"trace_id"`
	SpanID        string  `json:"span_id"`
	ParentID      string  `json:"parent_id,omitempty"`
	Name          string  `json:"name"`
	Service       string  `json:"service,omitempty"`
	StartUnixNano int64   `json:"start_unix_nano"`
	DurationNS    int64   `json:"duration_ns"`
	Attrs         []Attr  `json:"attrs,omitempty"`
	Events        []Event `json:"events,omitempty"`
	Error         bool    `json:"error,omitempty"`
}

// Keep policy: a local root is always sampled and a remote root keeps its
// propagated flag; an unsampled trace is still kept when it errored or its
// root ran at least slowTrace (tail sampling), so failures stay findable.
// slowTrace is a variable only so tests can lower it.
var slowTrace = time.Second

// maxTraceSpans bounds one trace's in-memory record accumulation; spans
// beyond it are counted, not stored, so a runaway loop cannot OOM the
// process through its trace.
const maxTraceSpans = 512

// trace accumulates the span records of one local trace. Every span under
// one root shares the root's trace; when the root ends, the keep policy
// (sampled ∨ errored ∨ slow) decides whether the records reach the
// collector.
type trace struct {
	id      TraceID
	root    *Span
	sampled bool // true for a local root, else the propagated flag

	mu      sync.Mutex
	records []SpanRecord
	errored bool
	dropped int
}

// add appends one completed span's record (bounded by maxTraceSpans).
func (tr *trace) add(rec SpanRecord) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if rec.Error {
		tr.errored = true
	}
	if len(tr.records) >= maxTraceSpans {
		tr.dropped++
		return
	}
	tr.records = append(tr.records, rec)
}

// finish applies the keep policy when the trace's root span ends and, when
// kept, publishes the records to the collector.
func (tr *trace) finish(rootDuration time.Duration) {
	tr.mu.Lock()
	keep := tr.sampled || tr.errored || rootDuration >= slowTrace
	records := tr.records
	dropped := tr.dropped
	tr.records = nil
	tr.mu.Unlock()
	if !keep {
		mTracesDropped.Inc()
		return
	}
	if dropped > 0 {
		mTraceSpansDropped.Add(int64(dropped))
	}
	mTracesKept.Inc()
	defaultTraceBuffer.publish(tr.id.String(), records)
}

// Trace-layer meta metrics.
var (
	mTracesKept        = GetCounter("obs.traces.kept")
	mTracesDropped     = GetCounter("obs.traces.dropped")
	mTraceSpansDropped = GetCounter("obs.traces.spans_dropped")
	mTracesIngested    = GetCounter("obs.traces.ingested_spans")
)
