package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"modelhub/internal/core"
	"modelhub/internal/hub"
	"modelhub/internal/obs"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestServerMuxWithMetrics(t *testing.T) {
	defer obs.Disable() // newMux(_, true) enables the global gate
	srv, err := hub.NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newMux(srv.Handler(), true, obs.DefaultTraceBufferSize))
	defer ts.Close()

	// The hub API answers through the mux.
	if code, _ := get(t, ts.URL+"/api/search?q="); code != http.StatusOK {
		t.Fatalf("/api/search status = %d", code)
	}
	// /metrics returns well-formed JSON with the request just counted.
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	var metrics map[string]any
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v", err)
	}
	if v, _ := metrics["hub.http.requests"].(float64); v < 1 {
		t.Fatalf("hub.http.requests = %v, want >= 1", metrics["hub.http.requests"])
	}
	// pprof is mounted.
	if code, _ := get(t, ts.URL+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}
}

func TestServerMuxWithoutMetrics(t *testing.T) {
	srv, err := hub.NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newMux(srv.Handler(), false, 0))
	defer ts.Close()
	if code, _ := get(t, ts.URL+"/metrics"); code != http.StatusNotFound {
		t.Fatalf("/metrics without -metrics: status = %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without -metrics: status = %d, want 404", code)
	}
}

func TestConfigureLogging(t *testing.T) {
	defer obs.SetLogger(nil)
	if err := obs.ConfigureLogging(""); err != nil {
		t.Fatalf("default logging: %v", err)
	}
	if err := obs.ConfigureLogging("info"); err != nil {
		t.Fatalf("-log-level info: %v", err)
	}
	if err := obs.ConfigureLogging("debug"); err != nil {
		t.Fatalf("-log-level debug: %v", err)
	}
	if err := obs.ConfigureLogging("shout"); err == nil {
		t.Fatal("bad -log-level accepted")
	}
}

// TestMain runs main itself in place of the tests when a test starts the
// test binary as a child with MODELHUB_SERVER_TEST_MAIN set.
func TestMain(m *testing.M) {
	if os.Getenv("MODELHUB_SERVER_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestVerboseFlagRefused: -v, which -log-level info replaced, is refused
// with a usage error (exit 2) before the server starts. Were it accepted,
// the child would serve on a loopback port until the context kills it.
func TestVerboseFlagRefused(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-v", "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "MODELHUB_SERVER_TEST_MAIN=1")
	cmd.Dir = t.TempDir() // where an accepted -v would put the data directory
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: -v") {
		t.Fatalf("modelhub-server -v: %v\n%s\nwant exit 2 naming the undefined flag", err, out)
	}
}

func TestCutResponseWriterTruncatesAtBudget(t *testing.T) {
	rec := httptest.NewRecorder()
	cw := &cutResponseWriter{ResponseWriter: rec, remaining: 10}
	n, err := cw.Write([]byte("0123456789abcdef"))
	if n != 10 || err == nil {
		t.Fatalf("first write = %d, %v; want 10 bytes and a cut error", n, err)
	}
	if !cw.cut {
		t.Fatal("writer not marked cut")
	}
	if n, err := cw.Write([]byte("more")); n != 0 || err == nil {
		t.Fatalf("write after cut = %d, %v; want 0 and an error", n, err)
	}
	if got := rec.Body.String(); got != "0123456789" {
		t.Fatalf("flushed body = %q", got)
	}
}

func TestCutResponseWriterPassesSmallWrites(t *testing.T) {
	rec := httptest.NewRecorder()
	cw := &cutResponseWriter{ResponseWriter: rec, remaining: 100}
	if n, err := cw.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("write = %d, %v", n, err)
	}
	if cw.cut || cw.remaining != 95 {
		t.Fatalf("cut = %v, remaining = %d", cw.cut, cw.remaining)
	}
}

// End to end through the fault-injection middleware: the first pull is cut
// and the connection severed, and the client transparently resumes via
// Range and lands a verified repository.
func TestFlakyPullCutClientResumes(t *testing.T) {
	srv, err := hub.NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(flakyPullCut(srv.Handler(), 64))
	defer ts.Close()

	client := hub.NewClientWith(ts.URL, hub.Options{})
	src := t.TempDir()
	mh, err := core.Init(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mh.TrainAndCommit("m", core.TrainOptions{Epochs: 1, Examples: 60}); err != nil {
		t.Fatal(err)
	}
	if err := client.Publish(context.Background(), src, "r"); err != nil {
		t.Fatal(err)
	}

	dest := t.TempDir()
	if err := client.Pull(context.Background(), "r", dest); err != nil {
		t.Fatalf("pull through fault injection: %v", err)
	}
	if _, err := core.Open(dest); err != nil {
		t.Fatalf("pulled repository does not open: %v", err)
	}
}
