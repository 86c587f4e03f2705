package obs

import (
	"context"
	"maps"
	"slices"
	"strconv"
	"sync"
	"time"
)

// Span is one timed region of work. Spans form a hierarchy through
// context.Context: Start called with a context that already carries a span
// makes the new span its child, and when a child ends its duration is
// billed to the parent's per-child rollup.
//
// Each ended span records into two metric families:
//
//	span.<name>.seconds             histogram of the span's own durations
//	span.<name>.child_ns.<child>    counter of cumulative nanoseconds the
//	                                named child spans consumed under it
//
// When tracing is enabled (EnableTracing), spans additionally carry trace
// identity: a new root draws a 128-bit trace ID (or adopts a propagated
// one via StartRemote), every span gets a 64-bit span ID, and End emits a
// SpanRecord into the trace's accumulator; when the root ends, the keep
// policy decides whether the whole trace reaches the ring-buffer collector.
//
// A nil *Span is a valid no-op (the disabled path), so call sites can
// unconditionally defer End and set attributes.
type Span struct {
	name   string
	start  time.Time
	parent *Span

	// Trace identity; tr is nil when tracing was off at Start, making every
	// trace-side method a cheap no-op.
	tr       *trace
	spanID   SpanID
	parentID SpanID

	mu      sync.Mutex
	childNS map[string]int64
	attrs   []Attr
	events  []Event
	errored bool
}

// spanKey carries the active span in a context.
type spanKey struct{}

// Start begins a span named name. When metrics are disabled it returns the
// context unchanged and a nil span whose End is a no-op. The returned
// context carries the span, so nested Start calls build a hierarchy.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	s := &Span{name: name, start: time.Now(), parent: parent}
	if tracing.Load() {
		if parent != nil && parent.tr != nil {
			s.tr = parent.tr
			s.parentID = parent.spanID
		} else {
			s.tr = &trace{id: newTraceID(), sampled: true}
			s.tr.root = s
		}
		s.spanID = newSpanID()
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// StartRoot begins a parentless span — for call sites without a context
// (DLV checkout/commit, DQL statement execution).
func StartRoot(name string) *Span {
	_, s := Start(context.Background(), name)
	return s
}

// StartRemote begins a span that continues a trace started in another
// process: tid/parentID come off the wire (a traceparent header) and
// sampled is the propagated head decision. The span is a local root — its
// End applies the keep policy for the records this process accumulated —
// but its records name the remote parent, so the collector's merged view
// nests it under the caller's span. Falls back to Start when tracing is
// off or the IDs are zero.
func StartRemote(ctx context.Context, name string, tid TraceID, parentID SpanID, sampled bool) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	if !tracing.Load() || tid.IsZero() || parentID.IsZero() {
		return Start(ctx, name)
	}
	s := &Span{name: name, start: time.Now()}
	s.tr = &trace{id: tid, sampled: sampled}
	s.tr.root = s
	s.spanID = newSpanID()
	s.parentID = parentID
	return context.WithValue(ctx, spanKey{}, s), s
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// End finishes the span: it observes the duration in the span's histogram,
// bills the duration to the parent's rollup, flushes this span's own child
// rollups to counters, and — when the span belongs to a trace — emits its
// SpanRecord (publishing the whole trace if this span is the trace root).
// Safe on a nil receiver. Returns the measured duration (0 when nil).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	GetHistogram("span." + s.name + ".seconds").Observe(d.Seconds())
	if s.parent != nil {
		s.parent.addChild(s.name, d)
	}
	s.mu.Lock()
	children := s.childNS
	s.childNS = nil
	attrs := s.attrs
	events := s.events
	errored := s.errored
	s.attrs, s.events = nil, nil
	s.mu.Unlock()
	// Deterministic flush order keeps registry lock contention predictable
	// and tests stable.
	for _, name := range slices.Sorted(maps.Keys(children)) {
		GetCounter("span." + s.name + ".child_ns." + name).Add(children[name])
	}
	if s.tr != nil {
		rec := SpanRecord{
			TraceID:       s.tr.id.String(),
			SpanID:        s.spanID.String(),
			Name:          s.name,
			Service:       Service(),
			StartUnixNano: s.start.UnixNano(),
			DurationNS:    d.Nanoseconds(),
			Attrs:         attrs,
			Events:        events,
			Error:         errored,
		}
		if !s.parentID.IsZero() {
			rec.ParentID = s.parentID.String()
		}
		s.tr.add(rec)
		if s.tr.root == s {
			s.tr.finish(d)
		}
	}
	return d
}

// addChild accumulates a finished child's duration under its name. Children
// may end concurrently (parallel retrieval tasks under one checkout span).
func (s *Span) addChild(name string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.childNS == nil {
		s.childNS = map[string]int64{}
	}
	s.childNS[name] += d.Nanoseconds()
}

// TraceID returns the span's trace ID (zero when the span is nil or has no
// trace).
func (s *Span) TraceID() TraceID {
	if s == nil || s.tr == nil {
		return TraceID{}
	}
	return s.tr.id
}

// SetAttr attaches a string attribute to the span's trace record. No-op on
// nil spans or spans without a trace.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.tr == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetAttrInt attaches an integer attribute to the span's trace record.
func (s *Span) SetAttrInt(key string, value int64) {
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// Event records a timestamped point event on the span (a retry, a panic).
// No-op on nil spans or spans without a trace.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil || s.tr == nil {
		return
	}
	ev := Event{TimeUnixNano: time.Now().UnixNano(), Name: name, Attrs: attrs}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// SetError marks the span failed; an errored span forces its whole trace to
// be kept even when it arrived unsampled. No-op on nil spans or spans
// without a trace.
func (s *Span) SetError() {
	if s == nil || s.tr == nil {
		return
	}
	s.mu.Lock()
	s.errored = true
	s.mu.Unlock()
}
