package hub

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modelhub/internal/dlv"
	"modelhub/internal/obs"
)

// fastOpts keeps retry tests quick: real retries, millisecond backoff.
func fastOpts(retries int) Options {
	return Options{Retries: retries, backoff: time.Millisecond}
}

// cutBody cuts a response body after `remaining` bytes with a transport
// error — the client-side view of a server killed mid-stream.
type cutBody struct {
	rc        io.ReadCloser
	remaining int64
}

func (c *cutBody) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, errors.New("injected stream cut")
	}
	if int64(len(p)) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.rc.Read(p)
	c.remaining -= int64(n)
	return n, err
}

func (c *cutBody) Close() error { return c.rc.Close() }

// flakyTransport is an http.RoundTripper that cuts the first `cuts` pull
// response bodies after cutAt bytes and records the Range header of every
// pull request it forwards.
type flakyTransport struct {
	base  http.RoundTripper
	cutAt int64
	cuts  int32 // remaining cuts

	mu     sync.Mutex
	ranges []string
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	isPull := strings.HasSuffix(req.URL.Path, "/api/pull")
	if isPull {
		f.mu.Lock()
		f.ranges = append(f.ranges, req.Header.Get("Range"))
		f.mu.Unlock()
	}
	resp, err := f.base.RoundTrip(req)
	if err != nil || !isPull {
		return resp, err
	}
	if atomic.AddInt32(&f.cuts, -1) >= 0 {
		resp.Body = &cutBody{rc: resp.Body, remaining: f.cutAt}
	}
	return resp, nil
}

func (f *flakyTransport) seenRanges() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.ranges...)
}

// A pull whose stream is cut at an arbitrary byte must resume from the
// verified offset via a Range request and produce a digest-clean repo.
func TestPullResumesAfterCutStream(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	resumesBefore := obs.GetCounter("hub.transfer.resumes").Value()

	_, client := newTestServer(t)
	if err := client.Publish(context.Background(), makeRepo(t, "resumed-model"), "r"); err != nil {
		t.Fatal(err)
	}
	infos, err := client.Search(context.Background(), "r")
	if err != nil || len(infos) != 1 {
		t.Fatalf("search = %v, %v", infos, err)
	}
	cutAt := infos[0].SizeBytes / 2
	if cutAt <= 0 {
		t.Fatalf("archive too small to cut: %d bytes", infos[0].SizeBytes)
	}
	ft := &flakyTransport{base: http.DefaultTransport, cutAt: cutAt, cuts: 1}
	client.HTTP = &http.Client{Transport: ft}
	client.Opts = fastOpts(3)

	dest := t.TempDir()
	if err := client.Pull(context.Background(), "r", dest); err != nil {
		t.Fatalf("pull with cut stream: %v", err)
	}
	repo, err := dlv.Open(dest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.VersionByName("resumed-model"); err != nil {
		t.Fatal(err)
	}
	// The second attempt must have resumed exactly at the cut offset.
	ranges := ft.seenRanges()
	want := fmt.Sprintf("bytes=%d-", cutAt)
	if len(ranges) != 2 || ranges[0] != "" || ranges[1] != want {
		t.Fatalf("pull ranges = %q, want [\"\" %q]", ranges, want)
	}
	if got := obs.GetCounter("hub.transfer.resumes").Value(); got != resumesBefore+1 {
		t.Fatalf("hub.transfer.resumes = %d, want %d", got, resumesBefore+1)
	}
}

// Every attempt cut and retries exhausted: the pull must fail AND leave the
// destination untouched so a later retry starts clean.
func TestPullCutEveryAttemptFailsClean(t *testing.T) {
	_, client := newTestServer(t)
	if err := client.Publish(context.Background(), makeRepo(t, "m"), "r"); err != nil {
		t.Fatal(err)
	}
	client.HTTP = &http.Client{Transport: &flakyTransport{base: http.DefaultTransport, cutAt: 16, cuts: 100}}
	client.Opts = fastOpts(2)
	dest := t.TempDir()
	if err := client.Pull(context.Background(), "r", dest); !errors.Is(err, ErrHub) {
		t.Fatalf("pull = %v, want ErrHub", err)
	}
	assertDirClean(t, dest)
}

// assertDirClean fails if dest contains any entry (a partial .dlv, a
// staging dir, anything a failed pull might strand).
func assertDirClean(t *testing.T, dest string) {
	t.Helper()
	entries, err := os.ReadDir(dest)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("failed pull left %q in the destination", e.Name())
	}
}

// Regression for the partial-state bug family: a pull that dies during
// extraction must not leave a half-extracted .dlv that makes every retry
// fail with "destination already contains a repository".
func TestPullFailedExtractThenRetrySucceeds(t *testing.T) {
	root := makeRepo(t, "m")
	var mu sync.Mutex
	var blob []byte // current archive served for pulls
	setBlob := func(b []byte) {
		mu.Lock()
		blob = b
		mu.Unlock()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/pull", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		b := append([]byte(nil), blob...)
		mu.Unlock()
		sum := sha256.Sum256(b)
		w.Header().Set(DigestHeader, digestString(sum[:]))
		w.Header().Set("Content-Length", strconv.Itoa(len(b)))
		_, _ = w.Write(b)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var full strings.Builder
	if err := PackRepo(root, &full); err != nil {
		t.Fatal(err)
	}
	good := []byte(full.String())
	// Truncated archive with a *matching* digest: the download verifies but
	// extraction dies partway — exactly the mid-extract crash case.
	setBlob(good[:len(good)/2])

	client := NewClientWith(ts.URL, fastOpts(0))
	dest := t.TempDir()
	if err := client.Pull(context.Background(), "r", dest); !errors.Is(err, ErrHub) {
		t.Fatalf("pull of truncated archive = %v, want ErrHub", err)
	}
	assertDirClean(t, dest)

	// The retry against a healthy server must succeed into the SAME dest.
	setBlob(good)
	if err := client.Pull(context.Background(), "r", dest); err != nil {
		t.Fatalf("retry after failed extract: %v", err)
	}
	if _, err := dlv.Open(dest); err != nil {
		t.Fatal(err)
	}
}

// A body that never matches the advertised digest must fail after bounded
// retries with a digest error, never hand back a corrupt repo.
func TestPullDigestMismatchRejected(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	before := obs.GetCounter("hub.transfer.digest_mismatch").Value()

	mux := http.NewServeMux()
	mux.HandleFunc("/api/pull", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(DigestHeader, strings.Repeat("0", 64)) // never the body's digest
		w.Header().Set("Content-Length", "9")
		_, _ = w.Write([]byte("not-a-zip"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	client := NewClientWith(ts.URL, fastOpts(1))
	err := client.Pull(context.Background(), "r", t.TempDir())
	if !errors.Is(err, ErrHub) || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("pull = %v, want digest mismatch", err)
	}
	if got := obs.GetCounter("hub.transfer.digest_mismatch").Value(); got <= before {
		t.Fatalf("hub.transfer.digest_mismatch did not increase (= %d)", got)
	}
}

// Search must retry transient 5xx responses and then succeed.
func TestSearchRetriesServerErrors(t *testing.T) {
	var calls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/api/search", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "wedged", http.StatusInternalServerError)
			return
		}
		_, _ = w.Write([]byte(`[{"name":"r"}]`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	out, err := NewClientWith(ts.URL, fastOpts(2)).Search(context.Background(), "r")
	if err != nil || len(out) != 1 || out[0].Name != "r" {
		t.Fatalf("search = %v, %v", out, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("search attempts = %d, want 2", calls.Load())
	}
	// 4xx responses are permanent: no retry.
	calls.Store(0)
	mux2 := http.NewServeMux()
	mux2.HandleFunc("/api/search", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "nope", http.StatusBadRequest)
	})
	ts2 := httptest.NewServer(mux2)
	defer ts2.Close()
	if _, err := NewClientWith(ts2.URL, fastOpts(3)).Search(context.Background(), "r"); !errors.Is(err, ErrHub) {
		t.Fatalf("search on 400 = %v, want ErrHub", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("400 was retried %d times", calls.Load()-1)
	}
}

// A server that accepts the connection but never answers must trip the
// per-attempt timeout instead of hanging the client forever (the old
// http.DefaultClient behaviour).
func TestSearchTimesOutOnHungServer(t *testing.T) {
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/api/search", func(w http.ResponseWriter, r *http.Request) {
		<-release // hold the request until the test finishes
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	defer close(release) // LIFO: release the handler before ts.Close waits on it

	client := NewClientWith(ts.URL, Options{Timeout: 50 * time.Millisecond, Retries: -1})
	done := make(chan error, 1)
	go func() { _, err := client.Search(context.Background(), "x"); done <- err }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrHub) {
			t.Fatalf("search = %v, want ErrHub timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("search did not time out")
	}
}

// A pull body that stalls (no progress) must be aborted by the stall
// watchdog rather than blocking forever.
func TestPullStallWatchdogAborts(t *testing.T) {
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/api/pull", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "1024")
		_, _ = w.Write([]byte("partial"))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-release // stall: promised 1024 bytes, never send the rest
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	defer close(release) // LIFO: release the handler before ts.Close waits on it

	client := NewClientWith(ts.URL, Options{StallTimeout: 100 * time.Millisecond, Retries: -1})
	done := make(chan error, 1)
	go func() { done <- client.Pull(context.Background(), "r", t.TempDir()) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrHub) {
			t.Fatalf("pull = %v, want ErrHub stall abort", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled pull was not aborted")
	}
}

func TestBackoffDelayBounds(t *testing.T) {
	o := Options{}.withDefaults()
	for attempt := 1; attempt <= 10; attempt++ {
		for i := 0; i < 20; i++ {
			d := backoffDelay(attempt, o)
			if d < baseBackoff/2 || d > maxBackoff {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, baseBackoff/2, maxBackoff)
			}
		}
	}
}

func TestParseContentRangeStart(t *testing.T) {
	if start, err := parseContentRangeStart("bytes 42-99/100"); err != nil || start != 42 {
		t.Fatalf("start = %d, %v", start, err)
	}
	for _, bad := range []string{"", "bytes", "bytes x-9/10", "units 1-2/3"} {
		if _, err := parseContentRangeStart(bad); err == nil {
			t.Errorf("%q must not parse", bad)
		}
	}
}

func TestOptionsDefaultsAndDisable(t *testing.T) {
	d := Options{}.withDefaults()
	if d.Timeout <= 0 || d.StallTimeout <= 0 || d.Retries != 2 || d.backoff != baseBackoff {
		t.Fatalf("defaults = %+v", d)
	}
	off := Options{Timeout: -1, StallTimeout: -1, Retries: -1}.withDefaults()
	if off.Timeout != 0 || off.StallTimeout != 0 || off.Retries != 0 {
		t.Fatalf("disabled = %+v", off)
	}
}

// NewClient must not hand out the timeout-free http.DefaultClient.
func TestNewClientHasTimeouts(t *testing.T) {
	c := NewClientWith("http://example.invalid", Options{})
	if c.HTTP == nil || c.HTTP == http.DefaultClient {
		t.Fatal("NewClient must default to a timeout-configured client")
	}
	tr, ok := c.HTTP.Transport.(*http.Transport)
	if !ok || tr.ResponseHeaderTimeout <= 0 {
		t.Fatalf("default transport lacks a response-header timeout: %+v", c.HTTP.Transport)
	}
}

// Pulling over a pre-existing repository must still be refused, and must
// not touch the existing repository.
func TestPullRefusesExistingRepoBeforeDownload(t *testing.T) {
	var pulls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/api/pull", func(w http.ResponseWriter, r *http.Request) {
		pulls.Add(1)
		http.NotFound(w, r)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	dest := t.TempDir()
	if err := os.Mkdir(filepath.Join(dest, ".dlv"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := NewClientWith(ts.URL, fastOpts(0)).Pull(context.Background(), "r", dest); !errors.Is(err, ErrHub) {
		t.Fatalf("pull into existing repo = %v", err)
	}
	if pulls.Load() != 0 {
		t.Fatal("pull must refuse before contacting the server")
	}
}
