package hub

import (
	"context"
	"net/http"
	"testing"
	"time"

	"modelhub/internal/obs"
)

// tracingTest turns the obs gates on with a fresh collector for one test.
func tracingTest(t *testing.T) {
	t.Helper()
	obs.Enable()
	obs.EnableTracing()
	obs.SetTraceBufferSize(32)
	t.Cleanup(func() {
		obs.SetTraceBufferSize(obs.DefaultTraceBufferSize)
		obs.DisableTracing()
		obs.Disable()
	})
}

// pullTraceRecords finds the newest hub.client.pull trace and waits briefly
// for the server's span to land (the handler may still be finishing its End
// when Pull returns).
func pullTraceRecords(t *testing.T, wantSpans int) []obs.SpanRecord {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		for _, tr := range obs.Traces() {
			if tr.Root != "hub.client.pull" {
				continue
			}
			records, ok := obs.TraceRecordsByString(tr.ID)
			if ok && len(records) >= wantSpans {
				return records
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no hub.client.pull trace with >= %d spans collected", wantSpans)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// One pull against a live server must produce ONE trace holding both sides:
// the client's pull root and attempt spans, and the server's request span as
// a child of the attempt that carried the traceparent header.
func TestPullTraceClientServerRoundTrip(t *testing.T) {
	tracingTest(t)
	_, client := newTestServer(t)
	if err := client.Publish(context.Background(), makeRepo(t, "traced-model"), "r"); err != nil {
		t.Fatal(err)
	}
	if err := client.Pull(context.Background(), "r", t.TempDir()); err != nil {
		t.Fatal(err)
	}

	// pull root + pull attempt + server request span.
	records := pullTraceRecords(t, 3)
	tid := records[0].TraceID
	byName := map[string]obs.SpanRecord{}
	for _, rec := range records {
		if rec.TraceID != tid {
			t.Fatalf("span %s has trace %s, want %s", rec.Name, rec.TraceID, tid)
		}
		byName[rec.Name] = rec
	}
	root, ok := byName["hub.client.pull"]
	if !ok || root.ParentID != "" {
		t.Fatalf("pull root = %+v, ok=%v", root, ok)
	}
	attempt, ok := byName["hub.client.pull.attempt"]
	if !ok || attempt.ParentID != root.SpanID {
		t.Fatalf("pull attempt = %+v (ok=%v), want child of %s", attempt, ok, root.SpanID)
	}
	server, ok := byName["hub.http.request"]
	if !ok {
		t.Fatal("server span missing from the merged trace")
	}
	if server.ParentID != attempt.SpanID {
		t.Fatalf("server span parent = %s, want the pull attempt %s", server.ParentID, attempt.SpanID)
	}
}

// A cut-and-resumed pull is ONE trace whose root has one child span per
// attempt: the first errored at the cut, the second resuming mid-archive.
func TestPullTraceResumeHasAttemptChildren(t *testing.T) {
	tracingTest(t)
	_, client := newTestServer(t)
	if err := client.Publish(context.Background(), makeRepo(t, "traced-resume"), "r"); err != nil {
		t.Fatal(err)
	}
	infos, err := client.Search(context.Background(), "r")
	if err != nil || len(infos) != 1 {
		t.Fatalf("search = %v, %v", infos, err)
	}
	cutAt := infos[0].SizeBytes / 2
	client.HTTP = &http.Client{Transport: &flakyTransport{base: http.DefaultTransport, cutAt: cutAt, cuts: 1}}
	client.Opts = fastOpts(3)
	if err := client.Pull(context.Background(), "r", t.TempDir()); err != nil {
		t.Fatalf("pull with cut stream: %v", err)
	}

	// pull root + 2 attempts (+ server spans arriving asynchronously).
	records := pullTraceRecords(t, 3)
	var root obs.SpanRecord
	var attempts []obs.SpanRecord
	for _, rec := range records {
		switch rec.Name {
		case "hub.client.pull":
			root = rec
		case "hub.client.pull.attempt":
			attempts = append(attempts, rec)
		}
	}
	if len(attempts) != 2 {
		t.Fatalf("attempt spans = %d, want 2", len(attempts))
	}
	attrOf := func(rec obs.SpanRecord, key string) string {
		for _, a := range rec.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	for _, a := range attempts {
		if a.ParentID != root.SpanID {
			t.Fatalf("attempt parent = %s, want the pull root %s", a.ParentID, root.SpanID)
		}
	}
	if attrOf(attempts[0], "hub.attempt") > attrOf(attempts[1], "hub.attempt") {
		attempts[0], attempts[1] = attempts[1], attempts[0]
	}
	if !attempts[0].Error {
		t.Fatal("cut first attempt not marked errored")
	}
	if off := attrOf(attempts[1], "hub.resume_offset"); off == "" || off == "0" {
		t.Fatalf("second attempt resume offset = %q, want the cut offset", off)
	}
	if attempts[1].Error {
		t.Fatal("successful resume attempt marked errored")
	}
}

// The client exports its spans with a POST to /debug/traces; the server
// handler must expose that endpoint (here the client and server share one
// in-process collector, so the export is a dedup no-op — the endpoint
// contract is what's under test).
func TestServerHandlerServesDebugTraces(t *testing.T) {
	tracingTest(t)
	_, client := newTestServer(t)
	resp, err := client.HTTP.Get(client.Base + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status = %d", resp.StatusCode)
	}
}
