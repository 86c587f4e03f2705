package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tracingTest flips the gates on with a fresh collector and restores the
// defaults afterwards, so trace tests do not bleed into each other.
func tracingTest(t *testing.T) {
	t.Helper()
	Enable()
	EnableTracing()
	SetTraceBufferSize(16)
	t.Cleanup(func() {
		slowTrace = time.Second
		SetTraceBufferSize(DefaultTraceBufferSize)
		DisableTracing()
		Disable()
	})
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid, err := ParseTraceID("0af7651916cd43dd8448eb211c80319c")
	if err != nil {
		t.Fatal(err)
	}
	sid, err := ParseSpanID("b7ad6b7169203331")
	if err != nil {
		t.Fatal(err)
	}
	for _, sampled := range []bool{true, false} {
		v := FormatTraceparent(tid, sid, sampled)
		wantFlags := "00"
		if sampled {
			wantFlags = "01"
		}
		want := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-" + wantFlags
		if v != want {
			t.Fatalf("FormatTraceparent = %q, want %q", v, want)
		}
		gtid, gsid, gsampled, err := ParseTraceparent(v)
		if err != nil {
			t.Fatalf("ParseTraceparent(%q): %v", v, err)
		}
		if gtid != tid || gsid != sid || gsampled != sampled {
			t.Fatalf("round trip = %v %v %v, want %v %v %v", gtid, gsid, gsampled, tid, sid, sampled)
		}
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00",
		"00-abc",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",      // missing flags
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",   // forbidden version
		"0-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",    // short version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",   // all-zero trace
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",   // all-zero span
		"00-0af7651916cd43dd8448eb211c80319-b7ad6b7169203331-01",    // short trace id
		"00-zzf7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",   // non-hex trace id
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0101", // long flags
		"zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",   // non-hex version
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0g",   // non-hex flags
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-x", // fifth field at version 00
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",   // upper-case trace id
		"00-0af7651916cd43dd8448eb211c80319c-B7AD6B7169203331-01",   // upper-case span id
	}
	for _, v := range bad {
		if _, _, _, err := ParseTraceparent(v); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted, want error", v)
		}
	}
	// Unknown (but well-formed) versions and their extra fields are
	// accepted per the W3C forward-compatibility rule.
	ok := "cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-futurefield"
	if _, _, sampled, err := ParseTraceparent(ok); err != nil || !sampled {
		t.Fatalf("forward-compat value rejected: %v (sampled=%v)", err, sampled)
	}
}

func TestSpanRecordsParentChild(t *testing.T) {
	tracingTest(t)
	ctx, parent := Start(context.Background(), "test.trace.parent")
	_, child := Start(ctx, "test.trace.child")
	tid, psid, csid := parent.TraceID(), parent.SpanID(), child.SpanID()
	if tid.IsZero() || psid.IsZero() || csid.IsZero() {
		t.Fatal("tracing on but IDs are zero")
	}
	if child.TraceID() != tid {
		t.Fatalf("child trace = %v, want %v", child.TraceID(), tid)
	}
	child.SetAttr("k", "v")
	child.End()
	parent.End()

	records, ok := TraceRecords(tid)
	if !ok || len(records) != 2 {
		t.Fatalf("TraceRecords = %d records, ok=%v; want 2", len(records), ok)
	}
	byName := map[string]SpanRecord{}
	for _, rec := range records {
		byName[rec.Name] = rec
	}
	crec := byName["test.trace.child"]
	if crec.ParentID != psid.String() {
		t.Fatalf("child parent = %q, want %q", crec.ParentID, psid.String())
	}
	if len(crec.Attrs) != 1 || crec.Attrs[0] != (Attr{Key: "k", Value: "v"}) {
		t.Fatalf("child attrs = %+v", crec.Attrs)
	}
	if prec := byName["test.trace.parent"]; prec.ParentID != "" {
		t.Fatalf("root parent = %q, want empty", prec.ParentID)
	}

	det, ok := Detail(tid.String())
	if !ok || det.Spans != 2 || det.Root != "test.trace.parent" {
		t.Fatalf("Detail = %+v, ok=%v", det.TraceSummary, ok)
	}
	if det.SpansDetail[0].OffsetNS != 0 {
		t.Fatalf("first span offset = %d, want 0", det.SpansDetail[0].OffsetNS)
	}
}

// A trace its caller did not sample (an unsampled remote root, the only
// sampling decision left) is kept only by the tail rules: a clean, fast
// trace is dropped, an errored or slow one is kept.
func TestSamplerZeroDropsCleanKeepsErrorAndSlow(t *testing.T) {
	tracingTest(t)
	parent, _ := ParseSpanID("b7ad6b7169203331")
	unsampled := func(name, tid string) (*Span, TraceID) {
		id, err := ParseTraceID(tid)
		if err != nil {
			t.Fatal(err)
		}
		_, s := StartRemote(context.Background(), name, id, parent, false)
		return s, id
	}

	// A clean, fast trace is dropped.
	clean, cleanID := unsampled("test.trace.clean", "1bf92f3577b34da6a3ce929d0e0e4736")
	clean.End()
	if _, ok := TraceRecords(cleanID); ok {
		t.Fatal("unsampled clean trace was kept")
	}

	// An errored trace is always kept.
	failed, failedID := unsampled("test.trace.failed", "2bf92f3577b34da6a3ce929d0e0e4736")
	failed.SetError()
	failed.End()
	records, ok := TraceRecords(failedID)
	if !ok || len(records) != 1 || !records[0].Error {
		t.Fatalf("errored trace not kept: ok=%v records=%+v", ok, records)
	}

	// A slow trace is always kept.
	slowTrace = time.Nanosecond
	slow, slowID := unsampled("test.trace.slow", "3bf92f3577b34da6a3ce929d0e0e4736")
	time.Sleep(time.Millisecond)
	slow.End()
	if _, ok := TraceRecords(slowID); !ok {
		t.Fatal("slow trace not kept")
	}
}

func TestTraceBufferWrapKeepsNewest(t *testing.T) {
	tracingTest(t)
	SetTraceBufferSize(4)
	var ids []string
	for i := 0; i < 10; i++ {
		s := StartRoot("test.trace.wrap")
		ids = append(ids, s.TraceID().String())
		s.End()
	}
	list := Traces()
	if len(list) != 4 {
		t.Fatalf("Traces after wrap = %d, want 4", len(list))
	}
	// The newest four survive; the oldest six are gone.
	for _, id := range ids[6:] {
		if _, ok := TraceRecordsByString(id); !ok {
			t.Fatalf("newest trace %s evicted", id)
		}
	}
	for _, id := range ids[:6] {
		if _, ok := TraceRecordsByString(id); ok {
			t.Fatalf("oldest trace %s still present after wrap", id)
		}
	}
}

func TestIngestSpansMergesAndDedupes(t *testing.T) {
	tracingTest(t)
	rec := SpanRecord{
		TraceID: "0af7651916cd43dd8448eb211c80319c", SpanID: "b7ad6b7169203331",
		Name: "remote.op", Service: "other-process", StartUnixNano: 100, DurationNS: 50,
	}
	IngestSpans([]SpanRecord{rec, rec, {Name: "no.ids"}}) // dup + id-less record dropped
	records, ok := TraceRecordsByString(rec.TraceID)
	if !ok || len(records) != 1 {
		t.Fatalf("ingested records = %d (ok=%v), want 1", len(records), ok)
	}
	// A second process's record under the same trace ID merges.
	IngestSpans([]SpanRecord{{
		TraceID: rec.TraceID, SpanID: "c8be7c827a314442", ParentID: rec.SpanID,
		Name: "remote.child", Service: "third-process", StartUnixNano: 110, DurationNS: 20,
	}})
	det, ok := Detail(rec.TraceID)
	if !ok || det.Spans != 2 {
		t.Fatalf("merged detail = %+v, ok=%v", det.TraceSummary, ok)
	}
	if want := []string{"other-process", "third-process"}; len(det.Services) != 2 ||
		det.Services[0] != want[0] || det.Services[1] != want[1] {
		t.Fatalf("services = %v, want %v", det.Services, want)
	}
}

func TestIngestSpansNoopWhileTracingDisabled(t *testing.T) {
	Disable()
	DisableTracing()
	IngestSpans([]SpanRecord{{
		TraceID: "1af7651916cd43dd8448eb211c80319c", SpanID: "a7ad6b7169203331", Name: "x",
	}})
	if _, ok := TraceRecordsByString("1af7651916cd43dd8448eb211c80319c"); ok {
		t.Fatal("IngestSpans stored records while tracing disabled")
	}
}

func TestWrapHandlerJoinsRemoteTrace(t *testing.T) {
	tracingTest(t)
	h := WrapHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), MiddlewareOptions{Prefix: "test.tracejoin"})
	srv := httptest.NewServer(h)
	defer srv.Close()

	tid, _ := ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	sid, _ := ParseSpanID("00f067aa0ba902b7")
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/op", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceparentHeader, FormatTraceparent(tid, sid, true))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}

	records, ok := TraceRecords(tid)
	if !ok || len(records) != 1 {
		t.Fatalf("remote-joined trace records = %d (ok=%v), want 1", len(records), ok)
	}
	rec := records[0]
	if rec.Name != "test.tracejoin.request" {
		t.Fatalf("span name = %q", rec.Name)
	}
	if rec.ParentID != sid.String() {
		t.Fatalf("server span parent = %q, want the remote caller %q", rec.ParentID, sid.String())
	}
}

func TestWrapHandlerPanicEventInTrace(t *testing.T) {
	tracingTest(t)
	h := WrapHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("trace boom")
	}), MiddlewareOptions{Prefix: "test.tracepanic"})
	srv := httptest.NewServer(h)
	defer srv.Close()

	// The caller did not sample the trace: the panic marks it errored, which
	// must keep it.
	tid, _ := ParseTraceID("5bf92f3577b34da6a3ce929d0e0e4736")
	sid, _ := ParseSpanID("00f067aa0ba902b7")
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/kaboom", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceparentHeader, FormatTraceparent(tid, sid, false))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}

	var panicked *TraceSummary
	for _, tr := range Traces() {
		if tr.Root == "test.tracepanic.request" {
			panicked = &tr
			break
		}
	}
	if panicked == nil {
		t.Fatal("panicked request trace not collected")
	}
	if !panicked.Error {
		t.Fatal("panicked trace not marked errored")
	}
	det, ok := Detail(panicked.ID)
	if !ok {
		t.Fatal("panicked trace has no detail")
	}
	var ev *Event
	for _, sv := range det.SpansDetail {
		for _, e := range sv.Events {
			if e.Name == "panic" {
				ev = &e
				break
			}
		}
	}
	if ev == nil {
		t.Fatal("no panic event on the crashed span")
	}
	attrs := map[string]string{}
	for _, a := range ev.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["panic.value"] != "trace boom" {
		t.Fatalf("panic.value = %q", attrs["panic.value"])
	}
	if !strings.Contains(attrs["panic.stack"], "http_test") &&
		!strings.Contains(attrs["panic.stack"], "goroutine") {
		t.Fatalf("panic.stack does not look like a stack: %q", attrs["panic.stack"])
	}
}

func TestTracesHandlerServesListDetailAndIngest(t *testing.T) {
	tracingTest(t)
	s := StartRoot("test.trace.http")
	tid := s.TraceID().String()
	s.End()
	srv := httptest.NewServer(TracesHandler())
	defer srv.Close()

	// List.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("list Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	// Detail by ID; unknown IDs 404.
	if resp, err = http.Get(srv.URL + "?id=" + tid); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("detail status = %v, %v", resp.StatusCode, err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp, err = http.Get(srv.URL + "?id=ffffffffffffffffffffffffffffffff"); err != nil ||
		resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status = %v, %v", resp.StatusCode, err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	// Ingest.
	body := `[{"trace_id":"2af7651916cd43dd8448eb211c80319c","span_id":"d7ad6b7169203331","name":"posted.op"}]`
	resp, err = http.Post(srv.URL, "application/json", strings.NewReader(body))
	if err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("ingest status = %v, %v", resp.StatusCode, err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := TraceRecordsByString("2af7651916cd43dd8448eb211c80319c"); !ok {
		t.Fatal("POSTed records not ingested")
	}
	// Garbage bodies are rejected.
	resp, err = http.Post(srv.URL, "application/json", strings.NewReader("not json"))
	if err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ingest status = %v, %v", resp.StatusCode, err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceMethodsNoopWithoutTracing(t *testing.T) {
	Enable()
	defer Disable()
	DisableTracing()
	_, s := Start(context.Background(), "test.trace.off")
	if s == nil {
		t.Fatal("metrics on: span must be live")
	}
	if !s.TraceID().IsZero() || !s.SpanID().IsZero() {
		t.Fatal("tracing off but the span has trace identity")
	}
	h := http.Header{}
	s.Inject(h)
	if h.Get(TraceparentHeader) != "" {
		t.Fatal("tracing off but Inject set a header")
	}
	s.SetAttr("k", "v")
	s.Event("e")
	s.SetError()
	s.End()
}

// ParseTraceparent never panics, and a version-00 value it accepts carries
// exactly what FormatTraceparent writes back: the same trace and span ids
// and the same sampled bit.
func FuzzParseTraceparent(f *testing.F) {
	for _, seed := range []string{
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0g",
		"cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-futurefield",
		"zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-x",
		" 00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-03 ",
		"", "-", "00---",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		tid, sid, sampled, err := ParseTraceparent(v)
		if err != nil || !strings.HasPrefix(strings.TrimSpace(v), "00-") {
			return
		}
		out := FormatTraceparent(tid, sid, sampled)
		gtid, gsid, gsampled, err := ParseTraceparent(out)
		if err != nil || gtid != tid || gsid != sid || gsampled != sampled {
			t.Fatalf("%q parsed as %v %v %v; its re-format %q parses as %v %v %v (%v)",
				v, tid, sid, sampled, out, gtid, gsid, gsampled, err)
		}
		in, re := strings.Split(strings.TrimSpace(v), "-"), strings.Split(out, "-")
		flags, err := strconv.ParseUint(in[3], 16, 8)
		if err != nil || !strings.EqualFold(in[1], re[1]) || !strings.EqualFold(in[2], re[2]) || sampled != (flags&1 == 1) {
			t.Fatalf("%q re-formats as %q: ids or sampled bit changed (%v)", v, out, err)
		}
	})
}

// tracesGet serves one GET of the collector and checks it answers valid
// JSON with the given status.
func tracesGet(t *testing.T, h http.Handler, target string, want int) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code != want || !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("GET %s: status %d, body %q", target, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// A trace-export POST answers 204 or 400 and never panics, whatever its
// body. After it, the list and the detail of every listed trace are valid
// JSON, and the collector holds at most DefaultTraceBufferSize traces of at
// most maxCollectedSpans spans each. Each input starts from an empty
// collector, so a crasher reproduces alone.
func FuzzIngestSpans(f *testing.F) {
	var many, long strings.Builder
	many.WriteString("[")
	long.WriteString("[")
	for i := range DefaultTraceBufferSize + 44 {
		if i > 0 {
			many.WriteString(",")
		}
		fmt.Fprintf(&many, `{"trace_id":"t%d","span_id":"s","start_unix_nano":%d}`, i, i)
	}
	for i := range maxCollectedSpans + 52 {
		if i > 0 {
			long.WriteString(",")
		}
		fmt.Fprintf(&long, `{"trace_id":"t","span_id":"s%d","parent_id":"s%d"}`, i, i/2)
	}
	for _, seed := range []string{
		`[{"trace_id":"2af7651916cd43dd8448eb211c80319c","span_id":"d7ad6b7169203331","name":"posted.op"}]`,
		`[{"trace_id":"t","span_id":"a","parent_id":"a","name":"x","service":"dlv","start_unix_nano":9223372036854775807,` +
			`"duration_ns":9223372036854775807,"error":true,"attrs":[{"key":"k","value":"\ud800"}],"events":[{"name":"e"}]},` +
			`{"trace_id":"t","span_id":"b","start_unix_nano":-9223372036854775808,"duration_ns":-1}]`,
		`[{"trace_id":"t","span_id":""},{"trace_id":"","span_id":"s"}]`,
		`[{"trace_id":"a&id=b","span_id":"s"},{"trace_id":"t","span_id":"s"},{"trace_id":"t","span_id":"s"}]`,
		many.String(), long.String(),
		`[]`, `null`, `{}`, `[null]`, `[1]`, `not json`, ``,
	} {
		f.Add([]byte(seed))
	}
	Enable()
	EnableTracing()
	f.Cleanup(func() {
		SetTraceBufferSize(DefaultTraceBufferSize)
		DisableTracing()
		Disable()
	})
	h := TracesHandler()
	f.Fuzz(func(t *testing.T, body []byte) {
		SetTraceBufferSize(DefaultTraceBufferSize)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/debug/traces", bytes.NewReader(body)))
		if rec.Code != http.StatusNoContent && rec.Code != http.StatusBadRequest {
			t.Fatalf("POST answered %d: %q", rec.Code, rec.Body.Bytes())
		}
		var list struct {
			Traces []TraceSummary `json:"traces"`
		}
		if err := json.Unmarshal(tracesGet(t, h, "/debug/traces", http.StatusOK), &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Traces) > DefaultTraceBufferSize {
			t.Fatalf("collector lists %d traces, more than its %d", len(list.Traces), DefaultTraceBufferSize)
		}
		for _, tr := range list.Traces {
			var det TraceDetail
			if err := json.Unmarshal(tracesGet(t, h, "/debug/traces?id="+url.QueryEscape(tr.ID), http.StatusOK), &det); err != nil {
				t.Fatal(err)
			}
			if tr.Spans > maxCollectedSpans || len(det.SpansDetail) != tr.Spans {
				t.Fatalf("trace %q lists %d spans and details %d, cap %d", tr.ID, tr.Spans, len(det.SpansDetail), maxCollectedSpans)
			}
		}
	})
}
