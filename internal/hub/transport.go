package hub

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"modelhub/internal/obs"
)

// Transfer metrics (DESIGN.md §8): resolved once from the default registry;
// all no-ops until a binary calls obs.Enable.
var (
	mPublishBytes   = obs.GetHistogram("hub.transfer.publish.bytes")
	mPullBytes      = obs.GetHistogram("hub.transfer.pull.bytes")
	mPullResumed    = obs.GetCounter("hub.transfer.pull.resumed_requests")
	mRetries        = obs.GetCounter("hub.transfer.retries")
	mResumes        = obs.GetCounter("hub.transfer.resumes")
	mDigestMismatch = obs.GetCounter("hub.transfer.digest_mismatch")
)

// Options tunes the client-side transfer behaviour: per-attempt timeouts,
// a progress watchdog for streaming bodies, and bounded retries with
// exponential backoff + jitter on idempotent requests (search, pull).
// The zero value of any field selects its default; negative values disable
// the mechanism entirely.
type Options struct {
	// Timeout bounds one whole attempt of a small control request
	// (search). Streaming transfers are bounded by StallTimeout instead,
	// so a large archive on a slow link is never killed by a fixed
	// ceiling. Default 30s.
	Timeout time.Duration
	// StallTimeout aborts a publish upload or pull download whose body
	// makes no progress for this long. Default 30s.
	StallTimeout time.Duration
	// Retries is the number of extra attempts (after the first) for
	// idempotent requests; one pull's resumes (Range requests from the
	// bytes already read) and restarts share them. Default 2.
	Retries int

	// backoff is the first retry's delay before jitter and seed pins the
	// jitter source; zero selects baseBackoff and a per-operation seed.
	// Only tests set them, to keep retries fast and delays reproducible.
	backoff time.Duration
	seed    int64

	// rng is the per-operation jitter source, attached by withDefaults.
	// Each operation (one publish, one search, one pull) owns its source,
	// so concurrent clients never serialize on the global math/rand lock.
	rng *rand.Rand
}

// baseBackoff is the first retry's delay before jitter; each later retry
// doubles it, up to maxBackoff (see backoffDelay).
const (
	baseBackoff = 100 * time.Millisecond
	maxBackoff  = 5 * time.Second
)

// withDefaults resolves zero fields to defaults and negative fields to off.
func (o Options) withDefaults() Options {
	pick := func(v, def time.Duration) time.Duration {
		if v < 0 {
			return 0
		}
		if v == 0 {
			return def
		}
		return v
	}
	o.Timeout = pick(o.Timeout, 30*time.Second)
	o.StallTimeout = pick(o.StallTimeout, 30*time.Second)
	o.backoff = pick(o.backoff, baseBackoff)
	switch {
	case o.Retries < 0:
		o.Retries = 0
	case o.Retries == 0:
		o.Retries = 2
	}
	seed := o.seed
	if seed == 0 {
		// Uncorrelated across concurrent operations: a fixed process base
		// mixed with a monotonic counter, no clock reads per operation.
		seed = jitterSeedBase ^ jitterSeedSeq.Add(1)
	}
	o.rng = rand.New(rand.NewSource(seed))
	return o
}

// jitterSeedBase and jitterSeedSeq derive per-operation jitter seeds when
// no seed is pinned.
var (
	jitterSeedBase = time.Now().UnixNano()
	jitterSeedSeq  atomic.Int64
)

// defaultHTTPClient builds the client that NewClientWith and the cluster's
// peer traffic use: dial and response-header timeouts so a hung or unreachable
// server fails fast, but no whole-request ceiling — streaming transfers are
// guarded by the per-attempt stall watchdog instead.
func defaultHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy: http.ProxyFromEnvironment,
			DialContext: (&net.Dialer{
				Timeout:   10 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			ResponseHeaderTimeout: 30 * time.Second,
			IdleConnTimeout:       90 * time.Second,
			MaxIdleConns:          100,
			ExpectContinueTimeout: time.Second,
		},
	}
}

// transientError marks a failure worth retrying: connection errors, cut
// streams, 5xx responses. Anything unmarked (4xx, digest-verified protocol
// violations, local filesystem errors) is permanent.
type transientError struct{ err error }

func (t transientError) Error() string { return t.err.Error() }
func (t transientError) Unwrap() error { return t.err }

// transientf builds an ErrHub-wrapped retryable error.
func transientf(format string, args ...any) error {
	return transientError{fmt.Errorf("%w: "+format, append([]any{ErrHub}, args...)...)}
}

// isTransient reports whether err is safe and useful to retry.
func isTransient(err error) bool {
	var t transientError
	return errors.As(err, &t)
}

// budget is one operation's retry allowance: every attempt of a search, and
// every resume and restart of one pull stream, draws on the same o.Retries.
type budget struct {
	o    Options
	used int
}

// again reports whether err is worth one more attempt and, if so, spends a
// retry and waits out its backoff. It is false for a nil or permanent err,
// once the budget is spent, and when ctx ends during the wait.
func (b *budget) again(ctx context.Context, err error) bool {
	if err == nil || !isTransient(err) || b.used >= b.o.Retries {
		return false
	}
	b.used++
	mRetries.Inc()
	return sleepCtx(ctx, backoffDelay(b.used, b.o)) == nil
}

// ctxAbort surfaces caller cancellation: when the operation context ended,
// the attempt's own error (usually a wrapped transport failure that lost
// the cause) is replaced by one carrying ctx.Err(), so callers can
// errors.Is(err, context.Canceled) on an aborted transfer.
func ctxAbort(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("%w: aborted: %w", ErrHub, cerr)
	}
	return err
}

// backoffDelay is the jittered exponential delay before retry `attempt`
// (1-based): o.backoff·2^(attempt-1) capped at maxBackoff, then jittered
// into [d/2, d]. Jitter draws from the operation's own seeded source
// (withDefaults), never the globally locked math/rand state.
func backoffDelay(attempt int, o Options) time.Duration {
	d := o.backoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	d = min(d, maxBackoff)
	return d/2 + time.Duration(o.rng.Int63n(int64(d/2)+1))
}

// sleepCtx waits for d or until ctx is done, whichever comes first. It is
// the retry loop's backoff primitive: timer + select, so a cancelled context
// aborts the wait immediately, which a time.Sleep would not.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// stallReader watches a streaming body for progress: every successful Read
// re-arms a watchdog timer that cancels the attempt's context when
// StallTimeout passes with no bytes. This bounds hung transfers without
// putting a fixed ceiling on large-but-moving ones.
type stallReader struct {
	r     io.Reader
	d     time.Duration
	timer *time.Timer
}

// newStallReader arms a watchdog around r that fires cancel after d without
// progress. A non-positive d disables the watchdog.
func newStallReader(r io.Reader, cancel context.CancelFunc, d time.Duration) *stallReader {
	s := &stallReader{r: r, d: d}
	if d > 0 {
		s.timer = time.AfterFunc(d, func() { cancel() })
	}
	return s
}

func (s *stallReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if s.timer != nil && n > 0 {
		s.timer.Reset(s.d)
	}
	return n, err
}

// stop disarms the watchdog; call it as soon as the copy finishes so a slow
// caller can't be cancelled retroactively.
func (s *stallReader) stop() {
	if s.timer != nil {
		s.timer.Stop()
	}
}
