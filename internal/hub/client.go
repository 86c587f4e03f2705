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
	"regexp"
	"strconv"
	"strings"
	"time"

	"modelhub/internal/obs"
)

// Client talks to a ModelHub server. Transfers are crash- and
// disconnect-safe: publishes stream from a packed temp file with an
// end-to-end SHA-256; pulls unpack into a hidden stage as the bytes arrive
// (resuming cut streams via Range requests), and promote the stage into
// the destination only after the whole archive matched its digest.
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
	tries := budget{o: c.Opts.withDefaults()}
	u := fmt.Sprintf("%s/api/search?q=%s", c.Base, url.QueryEscape(q))
	for {
		err = c.searchAttempt(rctx, u, tries.used+1, tries.o.Timeout, &out)
		if !tries.again(rctx, err) {
			break
		}
	}
	if err != nil {
		return nil, ctxAbort(rctx, err)
	}
	return out, nil
}

// searchAttempt performs one search GET under the per-attempt timeout,
// decoding into *out.
func (c *Client) searchAttempt(ctx context.Context, u string, attempt int, timeout time.Duration, out *[]RepoInfo) (err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	ctx, span := obs.Start(ctx, "hub.client.search.attempt")
	span.SetAttrInt("hub.attempt", int64(attempt))
	defer func() {
		if err != nil {
			span.SetError()
		}
		span.End()
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("%w: search: %v", ErrHub, err)
	}
	span.Inject(req.Header)
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

// Pull downloads a published repository into destRoot (dlv pull), which
// must not already contain one. The archive unpacks into a hidden
// .dlv-stage-* directory in destRoot as it arrives, a cut stream resuming
// via Range, and the stage's .dlv is promoted with one rename only once the
// whole archive matched the server's DigestHeader; until then UnpackRepo's
// maxUnpackRatio bound caps what the unverified bytes can write. A failed
// pull leaves destRoot as it found it. Cancelling ctx aborts it at once.
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
	st := newPullStream(rctx, c.HTTP, c.Base, name, "", c.Opts.withDefaults())
	for {
		err = pullStage(st, destRoot, dest)
		// A digest mismatch or a republish mid-stream restarts from byte 0
		// into a fresh stage, on what is left of the retry budget.
		if !st.tries.again(rctx, err) {
			break
		}
		st.h.Reset()
		st.n, st.digest, st.err = 0, "", nil
	}
	if err == nil {
		mPullBytes.Observe(float64(st.n))
	}
	return ctxAbort(rctx, err)
}

// pullStage unpacks st into a fresh stage in destRoot and promotes its .dlv
// to dest once every byte of st is in and matched the digest.
func pullStage(st *pullStream, destRoot, dest string) error {
	stage, err := os.MkdirTemp(destRoot, ".dlv-stage-*")
	if err != nil {
		return fmt.Errorf("%w: pull: %v", ErrHub, err)
	}
	defer os.RemoveAll(stage) // promotion has moved the repo out by then
	uerr := UnpackRepo(st, stage)
	// The stream's verdict comes first: a decode error over bytes that
	// missed the digest is the wire's and worth a restart; one over
	// verified bytes is the archive's and permanent.
	if _, err := io.Copy(io.Discard, st); err != nil {
		return err
	}
	if uerr != nil {
		return uerr
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

// pullStream reads a name's archive from GET /api/pull as one stream across
// transient cuts: it resumes at the bytes it has returned with Range under
// If-Range on the pinned digest, so a republish in the gap answers 200
// instead of splicing two archives. At EOF it returns an error, not io.EOF,
// unless those bytes hash to the pinned digest. Each request is one
// hub.client.pull.attempt span under a stall watchdog, on one retry budget.
type pullStream struct {
	ctx    context.Context
	hc     *http.Client
	url    string
	tries  budget
	digest string // pinned: the caller's, else the first response's
	h      hash.Hash
	n      int64             // bytes returned, all of them hashed
	err    error             // sticky: the EOF verdict, or an error the budget cannot retry
	body   io.Reader         // the open request's body; nil between requests
	end    func(failed bool) // closes the open request and ends its span; a no-op between requests
}

// errChanged is a response that cannot continue the bytes returned so far
// (another digest, or a whole archive for a resume); only the caller can.
var errChanged = transientError{fmt.Errorf("%w: pull content changed mid-download", ErrHub)}

// newPullStream reads name from base; an empty digest pins the first served.
func newPullStream(ctx context.Context, hc *http.Client, base, name, digest string, o Options) *pullStream {
	u := fmt.Sprintf("%s/api/pull?name=%s", base, url.QueryEscape(name))
	return &pullStream{ctx: ctx, hc: hc, url: u, tries: budget{o: o}, digest: digest, h: sha256.New(), end: func(bool) {}}
}

func (s *pullStream) Read(p []byte) (int, error) {
	for s.err == nil {
		if s.body == nil {
			if err := s.open(); err != nil {
				s.fail(err)
				continue
			}
		}
		n, err := s.body.Read(p)
		s.h.Write(p[:n])
		s.n += int64(n)
		if err == io.EOF {
			s.err = io.EOF
			if got := digestString(s.h.Sum(nil)); s.digest != "" && got != s.digest {
				mDigestMismatch.Inc()
				s.err = transientf("pull digest mismatch: got %s, want %s", got, s.digest)
			}
			s.release(s.err != io.EOF)
		} else if err != nil {
			s.fail(transientf("pull stream: %v", err))
		}
		if n > 0 || err == nil {
			return n, nil
		}
	}
	return 0, s.err
}

// open sends the next request: for the whole archive, or from byte s.n on.
func (s *pullStream) open() error {
	ctx, cancel := context.WithCancel(s.ctx)
	ctx, span := obs.Start(ctx, "hub.client.pull.attempt")
	span.SetAttrInt("hub.attempt", int64(s.tries.used+1))
	span.SetAttrInt("hub.resume_offset", s.n)
	// Armed from the request on: a peer that never answers is cut too.
	stall := newStallReader(nil, cancel, s.tries.o.StallTimeout)
	var resp *http.Response
	s.end = func(failed bool) {
		stall.stop()
		// A body that does not close cleanly marks its attempt failed.
		if resp != nil && resp.Body.Close() != nil {
			failed = true
		}
		cancel()
		span.SetAttrInt("hub.bytes_written", s.n)
		if failed {
			span.SetError()
		}
		span.End()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url, nil)
	if err != nil {
		return fmt.Errorf("%w: pull: %v", ErrHub, err)
	}
	span.Inject(req.Header)
	if s.n > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", s.n))
		if s.digest != "" {
			req.Header.Set("If-Range", etagFor(s.digest))
		}
	}
	if resp, err = s.hc.Do(req); err != nil {
		return transientf("pull: %v", err)
	}
	switch code := resp.StatusCode; {
	case code == http.StatusOK && s.n > 0:
		return errChanged
	case code == http.StatusPartialContent:
		cr := resp.Header.Get("Content-Range")
		if start, err := parseContentRangeStart(cr); err != nil || start != s.n {
			return transientf("pull resume at wrong offset (%q)", cr)
		}
		mResumes.Inc()
	case code >= 500:
		return transientf("pull failed (%d)", code)
	case code != http.StatusOK:
		return fmt.Errorf("%w: pull failed (%d)", ErrHub, code)
	}
	if d := resp.Header.Get(DigestHeader); s.digest == "" {
		s.digest = d
	} else if d != s.digest {
		return errChanged
	}
	stall.r = resp.Body
	s.body = stall
	return nil
}

// fail ends the open request, then spends a retry on err or makes it sticky.
func (s *pullStream) fail(err error) {
	s.release(true)
	if err == errChanged || !s.tries.again(s.ctx, err) {
		s.err = ctxAbort(s.ctx, err)
	}
}

// release ends the open request, if there is one.
func (s *pullStream) release(failed bool) {
	s.end(failed)
	s.body, s.end = nil, func(bool) {}
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

// contentRange is a byte Content-Range (RFC 9110 §14.4): first-pos,
// last-pos and complete-length or "*", each ASCII digits only.
var contentRange = regexp.MustCompile(`^bytes ([0-9]+)-([0-9]+)/([0-9]+|\*)$`)

// parseContentRangeStart returns first-pos of a 206 response's
// Content-Range, which must hold first-pos <= last-pos < complete-length.
func parseContentRangeStart(v string) (int64, error) {
	if m := contentRange.FindStringSubmatch(v); m != nil {
		start, err1 := strconv.ParseInt(m[1], 10, 64)
		end, err2 := strconv.ParseInt(m[2], 10, 64)
		size, err3 := strconv.ParseInt(m[3], 10, 64)
		if err1 == nil && err2 == nil && start <= end && (m[3] == "*" || err3 == nil && end < size) {
			return start, nil
		}
	}
	return 0, fmt.Errorf("%w: bad Content-Range %q", ErrHub, v)
}
