package hub

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"modelhub/internal/obs"
)

// Client talks to a ModelHub server. Transfers are crash- and
// disconnect-safe: publishes stream from a packed temp file with an
// end-to-end SHA-256, pulls download to a temp file (resuming cut streams
// via Range requests from the verified byte offset), digest-verify the
// archive, and only then extract + atomically promote into the destination.
type Client struct {
	// Base is the server URL, e.g. "http://localhost:8080".
	Base string
	// HTTP is the transport; NewClientWith sets defaultHTTPClient (sane dial
	// and response-header timeouts, no whole-request ceiling).
	HTTP *http.Client
	// Opts tunes timeouts, the stall watchdog, and the retry policy.
	// Zero fields select defaults; see Options.
	Opts Options
}

// NewClientWith creates a client with the given transfer options (the zero
// Options selects every default) and a transport of its own. A caller that
// makes one client per operation closes its idle connections when the
// operation returns (c.HTTP.CloseIdleConnections), or each one strands a
// socket until the transport's idle timeout.
func NewClientWith(base string, o Options) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: defaultHTTPClient(), Opts: o}
}

// Publish packs the repository at root and uploads it under the given name
// (dlv publish). The archive is packed to a temp file and hashed, the hash
// travels in DigestHeader, and the server rejects any upload whose streamed
// bytes do not match — a cut upload can never become visible server state.
// Cancelling ctx aborts the in-flight upload immediately instead of leaving
// it to stream until the stall watchdog notices.
func (c *Client) Publish(ctx context.Context, root, name string) (err error) {
	rctx, span := obs.Start(ctx, "hub.client.publish")
	span.SetAttr("hub.name", name)
	defer func() { c.endAndExport(span, err) }()
	opts := c.Opts.withDefaults()
	tmp, err := os.CreateTemp("", "dlv-publish-*.tar.gz")
	if err != nil {
		return fmt.Errorf("%w: publish: %v", ErrHub, err)
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()
	h := sha256.New()
	if err := PackRepo(root, io.MultiWriter(tmp, h)); err != nil {
		return err
	}
	size, err := tmp.Seek(0, io.SeekCurrent)
	if err != nil {
		return fmt.Errorf("%w: publish: %v", ErrHub, err)
	}
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("%w: publish: %v", ErrHub, err)
	}
	digest := digestString(h.Sum(nil))
	span.SetAttrInt("hub.archive_bytes", size)

	ctx, cancel := context.WithCancel(rctx)
	defer cancel()
	body := newStallReader(tmp, cancel, opts.StallTimeout)
	defer body.stop()
	u := fmt.Sprintf("%s/api/publish?name=%s", c.Base, url.QueryEscape(name))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, body)
	if err != nil {
		return fmt.Errorf("%w: publish: %v", ErrHub, err)
	}
	req.ContentLength = size
	req.Header.Set("Content-Type", "application/gzip")
	req.Header.Set(DigestHeader, digest)
	span.Inject(req.Header)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		// rctx, not the derived ctx: the stall watchdog cancels the child
		// and must keep reporting as a stall, not a caller abort.
		return ctxAbort(rctx, fmt.Errorf("%w: publish: %v", ErrHub, err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		//mhlint:ignore errcheck best-effort read of the error body for the message
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("%w: publish failed (%d): %s", ErrHub, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}

// Search queries the server for repositories matching q (dlv search).
// Transient failures (connection errors, cut responses, 5xx) are retried
// with backoff under a per-attempt timeout; each attempt is a child span of
// one search trace. Cancelling ctx aborts the in-flight attempt and any
// backoff wait between retries.
func (c *Client) Search(ctx context.Context, q string) (out []RepoInfo, err error) {
	rctx, span := obs.Start(ctx, "hub.client.search")
	span.SetAttr("hub.query", q)
	defer func() { c.endAndExport(span, err) }()
	opts := c.Opts.withDefaults()
	u := fmt.Sprintf("%s/api/search?q=%s", c.Base, url.QueryEscape(q))
	attempt := 0
	err = retry(rctx, opts, func(ctx context.Context) error {
		attempt++
		ctx, aspan := obs.Start(ctx, "hub.client.search.attempt")
		aspan.SetAttrInt("hub.attempt", int64(attempt))
		aerr := c.searchAttempt(ctx, u, &out)
		if aerr != nil {
			aspan.SetError()
		}
		aspan.End()
		return aerr
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// searchAttempt performs one search GET, decoding into *out.
func (c *Client) searchAttempt(ctx context.Context, u string, out *[]RepoInfo) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("%w: search: %v", ErrHub, err)
	}
	obs.FromContext(ctx).Inject(req.Header)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return transientf("search: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode >= 500 {
			return transientf("search failed (%d)", resp.StatusCode)
		}
		return fmt.Errorf("%w: search failed (%d)", ErrHub, resp.StatusCode)
	}
	*out = nil // a retried attempt must not append to a torn first decode
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return transientf("search response: %v", err)
	}
	return nil
}

// Pull downloads a published repository into destRoot (dlv pull). destRoot
// must not already contain a repository. The archive lands in a temp file
// first (cut streams resume via Range from the verified offset), is
// digest-verified against the server's DigestHeader, extracted into a
// staging directory, and promoted into destRoot with one atomic rename —
// a failed or interrupted pull leaves destRoot untouched, so a retry
// always starts clean. A cancelled ctx aborts the in-flight download (and
// any retry backoff) within one backoff interval instead of streaming on
// until the stall watchdog fires.
func (c *Client) Pull(ctx context.Context, name, destRoot string) (err error) {
	rctx, span := obs.Start(ctx, "hub.client.pull")
	span.SetAttr("hub.name", name)
	defer func() { c.endAndExport(span, err) }()
	dest := filepath.Join(destRoot, ".dlv")
	if _, err := os.Stat(dest); err == nil {
		return fmt.Errorf("%w: destination already contains a repository", ErrHub)
	}
	if err := os.MkdirAll(destRoot, 0o755); err != nil {
		return fmt.Errorf("%w: pull: %v", ErrHub, err)
	}
	arch, err := os.CreateTemp("", "dlv-pull-*.tar.gz")
	if err != nil {
		return fmt.Errorf("%w: pull: %v", ErrHub, err)
	}
	defer os.Remove(arch.Name())
	defer arch.Close()
	if err := c.download(rctx, name, arch); err != nil {
		return err
	}
	if _, err := arch.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("%w: pull: %v", ErrHub, err)
	}

	// Extract into a staging dir inside destRoot (same filesystem), then
	// promote the .dlv tree with one rename. A crash or unpack failure
	// strands at most a hidden staging dir, never a half-extracted .dlv.
	stage, err := os.MkdirTemp(destRoot, ".dlv-stage-*")
	if err != nil {
		return fmt.Errorf("%w: pull: %v", ErrHub, err)
	}
	defer os.RemoveAll(stage) // promotion has moved the repo out by then
	if err := UnpackRepo(arch, stage); err != nil {
		return err
	}
	staged := filepath.Join(stage, ".dlv")
	if _, err := os.Stat(staged); err != nil {
		return fmt.Errorf("%w: pulled archive contains no repository", ErrHub)
	}
	if err := os.Rename(staged, dest); err != nil {
		if _, serr := os.Stat(dest); serr == nil {
			return fmt.Errorf("%w: destination already contains a repository", ErrHub)
		}
		return fmt.Errorf("%w: pull: %v", ErrHub, err)
	}
	return nil
}

// download fetches the named archive into f, retrying transient failures
// and resuming from the number of bytes already written and hashed. The
// final file is verified against the server-advertised digest.
func (c *Client) download(ctx context.Context, name string, f *os.File) error {
	opts := c.Opts.withDefaults()
	// A pull attempt streams for as long as it makes progress: the stall
	// watchdog bounds it, not the control-request Timeout.
	opts.Timeout = 0
	h := sha256.New()
	var written int64
	var expected string // digest pinned from the first response
	attempt := 0
	err := retry(ctx, opts, func(ctx context.Context) error {
		attempt++
		actx, aspan := obs.Start(ctx, "hub.client.pull.attempt")
		defer aspan.End()
		aspan.SetAttrInt("hub.attempt", int64(attempt))
		aspan.SetAttrInt("hub.resume_offset", written)
		err := c.pullAttempt(actx, opts, name, f, h, &written, &expected)
		aspan.SetAttrInt("hub.bytes_written", written)
		if err == nil && expected != "" {
			if got := digestString(h.Sum(nil)); got != expected {
				mDigestMismatch.Inc()
				err = transientf("pull digest mismatch: got %s, want %s", got, expected)
				if rerr := resetDownload(f, h, &written); rerr != nil {
					err = rerr
				}
			}
		}
		if err != nil {
			aspan.SetError()
		}
		return err
	})
	if err != nil {
		return err
	}
	mPullBytes.Observe(float64(written))
	return nil
}

// pullAttempt performs one GET, resuming with a Range request when earlier
// attempts already banked verified bytes. If-Range pins the pinned digest's
// ETag so a republish between attempts yields a clean full restart (200)
// instead of a mixed-content archive.
func (c *Client) pullAttempt(ctx context.Context, opts Options, name string, f *os.File,
	h hash.Hash, written *int64, expected *string) error {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	u := fmt.Sprintf("%s/api/pull?name=%s", c.Base, url.QueryEscape(name))
	req, err := http.NewRequestWithContext(actx, http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("%w: pull: %v", ErrHub, err)
	}
	obs.FromContext(actx).Inject(req.Header)
	resuming := *written > 0
	if resuming {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", *written))
		if *expected != "" {
			req.Header.Set("If-Range", etagFor(*expected))
		}
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return transientf("pull: %v", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		// Full body: either a fresh download, a server without Range
		// support, or content that changed since the partial download.
		if resuming {
			if err := resetDownload(f, h, written); err != nil {
				return err
			}
		}
	case http.StatusPartialContent:
		start, err := parseContentRangeStart(resp.Header.Get("Content-Range"))
		if err != nil || start != *written {
			if rerr := resetDownload(f, h, written); rerr != nil {
				return rerr
			}
			return transientf("pull resume at wrong offset (%q)", resp.Header.Get("Content-Range"))
		}
		mResumes.Inc()
	default:
		if resp.StatusCode >= 500 {
			return transientf("pull failed (%d)", resp.StatusCode)
		}
		return fmt.Errorf("%w: pull failed (%d)", ErrHub, resp.StatusCode)
	}
	if d := resp.Header.Get(DigestHeader); d != "" {
		if *expected == "" {
			*expected = d
		} else if d != *expected {
			// The name was republished. Pin the new digest and start over.
			*expected = d
			if err := resetDownload(f, h, written); err != nil {
				return err
			}
			if resp.StatusCode == http.StatusPartialContent {
				return transientf("pull content changed mid-download")
			}
		}
	}
	body := newStallReader(resp.Body, cancel, opts.StallTimeout)
	defer body.stop()
	n, err := io.Copy(io.MultiWriter(f, h), body)
	*written += n
	if err != nil {
		return transientf("pull stream: %v", err)
	}
	return nil
}

// resetDownload discards banked partial-download state: the file is
// truncated and the hash restarted so the next attempt begins from byte 0.
func resetDownload(f *os.File, h hash.Hash, written *int64) error {
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("%w: pull: %v", ErrHub, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("%w: pull: %v", ErrHub, err)
	}
	h.Reset()
	*written = 0
	return nil
}

// endAndExport finishes a client operation's root span, marking it failed
// when err is non-nil, and — if the trace was kept by the sampling policy —
// exports the client-side span records to the server's flight recorder so
// both halves of the distributed trace are visible at one /debug/traces.
func (c *Client) endAndExport(span *obs.Span, err error) {
	if span == nil {
		return
	}
	if err != nil {
		span.SetError()
	}
	tid := span.TraceID()
	span.End()
	c.exportTrace(tid)
}

// exportTrace POSTs the locally collected records of one trace to the
// server's /debug/traces ingest endpoint. Best-effort: telemetry delivery
// must never fail an operation, so errors are only debug-logged.
func (c *Client) exportTrace(tid obs.TraceID) {
	if tid.IsZero() {
		return
	}
	records, ok := obs.TraceRecords(tid)
	if !ok {
		return
	}
	blob, err := json.Marshal(records)
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/debug/traces", bytes.NewReader(blob))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		obs.Logger().Debug("trace export failed", "err", err)
		return
	}
	defer resp.Body.Close()
	//mhlint:ignore errcheck best-effort drain so the connection can be reused
	_, _ = io.Copy(io.Discard, resp.Body)
}

// parseContentRangeStart extracts the first byte offset of a
// "bytes START-END/TOTAL" Content-Range header.
func parseContentRangeStart(v string) (int64, error) {
	v, ok := strings.CutPrefix(v, "bytes ")
	if !ok {
		return 0, fmt.Errorf("%w: bad Content-Range", ErrHub)
	}
	dash := strings.IndexByte(v, '-')
	if dash < 0 {
		return 0, fmt.Errorf("%w: bad Content-Range", ErrHub)
	}
	start, err := strconv.ParseInt(v[:dash], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad Content-Range: %v", ErrHub, err)
	}
	return start, nil
}
