package obs

import (
	"context"
	"testing"
	"time"
)

// Name returns the span's name ("" for the nil no-op span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SpanID returns the span's ID (zero when the span is nil or has no trace).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.spanID
}

func TestSpanDisabledIsNil(t *testing.T) {
	Disable()
	ctx, s := Start(context.Background(), "test.span.off")
	if s != nil {
		t.Fatal("Start returned a live span while disabled")
	}
	if FromContext(ctx) != nil {
		t.Fatal("disabled Start attached a span to the context")
	}
	if d := s.End(); d != 0 {
		t.Fatalf("nil span End = %v, want 0", d)
	}
	if s.Name() != "" {
		t.Fatalf("nil span Name = %q, want empty", s.Name())
	}
}

func TestSpanNestingRollups(t *testing.T) {
	Enable()
	defer Disable()
	ctx, parent := Start(context.Background(), "test.span.parent")
	if FromContext(ctx) != parent {
		t.Fatal("context does not carry the parent span")
	}
	cctx, child := Start(ctx, "test.span.child")
	if FromContext(cctx) != child {
		t.Fatal("context does not carry the child span")
	}
	time.Sleep(time.Millisecond)
	if d := child.End(); d <= 0 {
		t.Fatalf("child duration = %v, want > 0", d)
	}
	// A second child of the same name accumulates into the same rollup.
	_, child2 := Start(ctx, "test.span.child")
	child2.End()
	parent.End()

	if s := GetHistogram("span.test.span.parent.seconds").Snapshot(); s.Count == 0 {
		t.Fatal("parent span recorded no duration")
	}
	if s := GetHistogram("span.test.span.child.seconds").Snapshot(); s.Count < 2 {
		t.Fatalf("child span histogram count = %d, want >= 2", s.Count)
	}
	roll := GetCounter("span.test.span.parent.child_ns.test.span.child").Value()
	if roll < time.Millisecond.Nanoseconds() {
		t.Fatalf("child rollup = %dns, want >= 1ms", roll)
	}
}

func TestStartRoot(t *testing.T) {
	Enable()
	defer Disable()
	s := StartRoot("test.span.root")
	if s == nil {
		t.Fatal("StartRoot returned nil while enabled")
	}
	if s.Name() != "test.span.root" {
		t.Fatalf("Name = %q", s.Name())
	}
	s.End()
	if snap := GetHistogram("span.test.span.root.seconds").Snapshot(); snap.Count == 0 {
		t.Fatal("root span recorded no duration")
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	Enable()
	defer Disable()
	ctx, parent := Start(context.Background(), "test.span.par")
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			_, c := Start(ctx, "test.span.par.worker")
			c.End()
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	parent.End()
	if GetCounter("span.test.span.par.child_ns.test.span.par.worker").Value() <= 0 {
		t.Fatal("concurrent children did not roll up into the parent")
	}
}
