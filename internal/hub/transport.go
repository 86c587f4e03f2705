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
	// idempotent requests. Pull retries resume from the verified byte
	// offset via a Range request. Default 2.
	Retries int
	// BaseBackoff and MaxBackoff shape the exponential backoff between
	// retries; each delay is jittered into [d/2, d]. Defaults 100ms / 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterSeed seeds the backoff jitter source. Zero selects a
	// process-unique seed; tests pin it to make delay sequences
	// reproducible.
	JitterSeed int64

	// rng is the per-operation jitter source, attached by withDefaults.
	// Each operation (one publish, one search, one pull) owns its source,
	// so concurrent clients never serialize on the global math/rand lock.
	rng *rand.Rand
}

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
	o.BaseBackoff = pick(o.BaseBackoff, 100*time.Millisecond)
	o.MaxBackoff = pick(o.MaxBackoff, 5*time.Second)
	switch {
	case o.Retries < 0:
		o.Retries = 0
	case o.Retries == 0:
		o.Retries = 2
	}
	seed := o.JitterSeed
	if seed == 0 {
		// Uncorrelated across concurrent operations: a fixed process base
		// mixed with a monotonic counter, no clock reads per operation.
		seed = jitterSeedBase ^ jitterSeedSeq.Add(1)
	}
	o.rng = rand.New(rand.NewSource(seed))
	return o
}

// jitterSeedBase and jitterSeedSeq derive per-operation jitter seeds when
// Options.JitterSeed is zero.
var (
	jitterSeedBase = time.Now().UnixNano()
	jitterSeedSeq  atomic.Int64
)

// DefaultHTTPClient builds the client that NewClientWith and a ClusterConfig
// without one use: dial and response-header timeouts so a hung or unreachable
// server fails fast, but no whole-request ceiling — streaming transfers are
// guarded by the per-attempt stall watchdog instead.
func DefaultHTTPClient() *http.Client {
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

// retry runs op, retrying transient failures up to o.Retries times with
// jittered exponential backoff. Each attempt gets its own timeout context
// when o.Timeout is set. Intended for idempotent control requests; pull
// carries cross-attempt resume state and drives backoffLoop directly.
func retry(ctx context.Context, o Options, op func(context.Context) error) error {
	attempt := 0
	for {
		err := runAttempt(ctx, o.Timeout, op)
		if err == nil || !isTransient(err) || attempt >= o.Retries {
			return ctxAbort(ctx, err)
		}
		attempt++
		mRetries.Inc()
		if serr := sleepCtx(ctx, backoffDelay(attempt, o)); serr != nil {
			return ctxAbort(ctx, err)
		}
	}
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

// runAttempt executes one attempt under an optional per-attempt deadline.
func runAttempt(ctx context.Context, timeout time.Duration, op func(context.Context) error) error {
	if timeout <= 0 {
		return op(ctx)
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	return op(actx)
}

// backoffDelay is the jittered exponential delay before retry `attempt`
// (1-based): base·2^(attempt-1) capped at max, then jittered into [d/2, d].
// Jitter draws from the operation's own seeded source (withDefaults), never
// the globally locked math/rand state.
func backoffDelay(attempt int, o Options) time.Duration {
	d := o.BaseBackoff
	for i := 1; i < attempt && d < o.MaxBackoff; i++ {
		d *= 2
	}
	if o.MaxBackoff > 0 && d > o.MaxBackoff {
		d = o.MaxBackoff
	}
	if d <= 0 {
		return 0
	}
	rng := o.rng
	if rng == nil {
		// Options that skipped withDefaults (hand-built in tests).
		rng = rand.New(rand.NewSource(jitterSeedBase ^ jitterSeedSeq.Add(1)))
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// sleepCtx waits for d or until ctx is done, whichever comes first. It is
// the retry loop's backoff primitive: timer + select, so a cancelled context
// aborts the wait immediately (and apihygiene's no-time.Sleep rule holds).
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
