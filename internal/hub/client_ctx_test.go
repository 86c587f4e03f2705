package hub

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// hangingServer accepts requests and sits on them until the client goes
// away — the regression surface for the old bug where Publish/Search/Pull
// minted fresh background contexts and caller cancellation never reached
// the in-flight transfer.
func hangingServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: only after the body is consumed does
		// net/http watch the connection, so a client abort cancels
		// r.Context() and lets ts.Close() finish.
		//mhlint:ignore errcheck the drain exists only to unblock abort detection
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)
	return ts
}

// cancelOpts keeps retries/backoff small but non-zero so the test also
// proves cancellation cuts through the retry loop, and disables the stall
// watchdog as an accidental rescuer.
func cancelOpts() Options {
	return Options{Timeout: 30 * time.Second, StallTimeout: 30 * time.Second,
		Retries: 2, backoff: 50 * time.Millisecond}
}

// assertCancels runs op with a context cancelled after 100ms and asserts it
// returns context.Canceled well within one backoff interval of the cancel,
// not after the server deigns to answer.
func assertCancels(t *testing.T, what string, op func(ctx context.Context) error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(100*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()
	start := time.Now()
	err := op(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%s under a cancelled context: %v, want context.Canceled", what, err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("%s took %s to notice cancellation", what, elapsed)
	}
}

func TestPublishCancelAbortsUpload(t *testing.T) {
	ts := hangingServer(t)
	root := makeRepo(t, "m")
	client := NewClientWith(ts.URL, cancelOpts())
	assertCancels(t, "Publish", func(ctx context.Context) error {
		return client.Publish(ctx, root, "r")
	})
}

func TestPullCancelAbortsDownload(t *testing.T) {
	ts := hangingServer(t)
	client := NewClientWith(ts.URL, cancelOpts())
	assertCancels(t, "Pull", func(ctx context.Context) error {
		return client.Pull(ctx, "r", t.TempDir())
	})
}

func TestSearchCancelCutsBackoff(t *testing.T) {
	// Every attempt fails transiently (503), so the client sits in its
	// retry backoff — at its 5s cap from the first retry, so only
	// cancellation can end the call quickly.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	client := NewClientWith(ts.URL, Options{
		Timeout: 5 * time.Second, Retries: 3, backoff: maxBackoff,
	})
	assertCancels(t, "Search", func(ctx context.Context) error {
		_, err := client.Search(ctx, "q")
		return err
	})
}

// TestBackoffJitterSeedDeterminism pins the jitter seed and asserts the delay
// sequence is reproducible — and that an unpinned seed gives each operation
// its own source rather than the old process-global one.
func TestBackoffJitterSeedDeterminism(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		o := Options{seed: seed}.withDefaults()
		var out []time.Duration
		for attempt := 1; attempt <= 5; attempt++ {
			out = append(out, backoffDelay(attempt, o))
		}
		return out
	}
	a, b := seq(42), seq(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pinned seed must reproduce delays: %v vs %v", a, b)
		}
	}
	if c := seq(43); a[0] == c[0] && a[1] == c[1] && a[2] == c[2] {
		t.Fatalf("different seeds gave identical delays: %v", a)
	}
}

func TestBackoffDelayStaysJitteredInRange(t *testing.T) {
	o := Options{seed: 7}.withDefaults()
	for attempt := 1; attempt <= 8; attempt++ {
		// The deterministic (unjittered) exponential ceiling.
		d := baseBackoff
		for i := 1; i < attempt && d < maxBackoff; i++ {
			d *= 2
		}
		if d > maxBackoff {
			d = maxBackoff
		}
		got := backoffDelay(attempt, o)
		if got < d/2 || got > d {
			t.Fatalf("attempt %d: delay %s outside [%s, %s]", attempt, got, d/2, d)
		}
	}
}

// TestBackoffDelayConcurrentClients drives backoffDelay from many
// goroutines at once: per-operation sources mean no shared lock and no data
// race (the -race build is the real assertion here).
func TestBackoffDelayConcurrentClients(t *testing.T) {
	done := make(chan struct{}, 8)
	for g := 0; g < 8; g++ {
		go func() {
			o := Options{}.withDefaults()
			for i := 1; i <= 100; i++ {
				backoffDelay(i%5+1, o)
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
