package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

const replicaCount = 3

// netCounters counts what crosses one group of benchmark-owned listeners.
type netCounters struct{ rx, tx, accepts atomic.Int64 }

type countingListener struct {
	net.Listener
	c *netCounters
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.c.accepts.Add(1)
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *netCounters
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.rx.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.tx.Add(int64(n))
	return n, err
}

// ReadFrom keeps the sendfile path net/http takes on a bare TCP connection,
// so wrapping the listener does not change how the server moves bytes.
func (c *countingConn) ReadFrom(r io.Reader) (int64, error) {
	n, err := c.Conn.(io.ReaderFrom).ReadFrom(r)
	c.c.tx.Add(n)
	return n, err
}

// httpStats is what the handler wrapper sees on one tier (gateway or the
// replicas): request and 5xx counts, 200s per path, and the digest header of
// the last 200 per path, which the correctness gates compare against what
// the replicas list.
type httpStats struct {
	mu       sync.Mutex
	requests int
	errors   int
	ok       map[string]int
	digest   map[string]string
}

func newHTTPStats() *httpStats {
	return &httpStats{ok: map[string]int{}, digest: map[string]string{}}
}

func (s *httpStats) lastDigest(path string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.digest[path]
}

func (s *httpStats) count(path string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ok[path]
}

// statusWriter notes the status and digest header when the handler commits
// the response head, which is before the client can see the reply.
type statusWriter struct {
	http.ResponseWriter
	stats *httpStats
	path  string
	code  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
		w.stats.mu.Lock()
		w.stats.requests++
		if code >= 500 {
			w.stats.errors++
		}
		if code == http.StatusOK {
			w.stats.ok[w.path]++
			w.stats.digest[w.path] = w.Header().Get(digestHeader)
		}
		w.stats.mu.Unlock()
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(p)
}

// cluster is a gateway in front of three storage replicas (replication factor
// three), all in this process on real loopback listeners.
type cluster struct {
	gatewayURL  string
	replicaURLs []string
	replicaDirs []string

	gatewayNet, replicaNet   netCounters
	gatewayHTTP, replicaHTTP *httpStats
	servers                  []*http.Server
	serving                  sync.WaitGroup
	tr                       *tracer
	inventoryClient          *http.Client
	lastPublish              time.Time
}

func startCluster(root string, tr *tracer) (*cluster, error) {
	cl := &cluster{gatewayHTTP: newHTTPStats(), replicaHTTP: newHTTPStats(), tr: tr,
		inventoryClient: &http.Client{Timeout: 10 * time.Second}}
	// Bind every port and build every handler first; serve only once nothing
	// can fail any more, so an error leaves no goroutine behind.
	var listeners []net.Listener // the replicas', then the gateway's
	fail := func(err error) (*cluster, error) {
		for _, ln := range listeners {
			ln.Close()
		}
		return nil, err
	}
	for len(listeners) <= replicaCount {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		listeners = append(listeners, ln)
	}
	for _, ln := range listeners[:replicaCount] {
		cl.replicaURLs = append(cl.replicaURLs, "http://"+ln.Addr().String())
	}
	cl.gatewayURL = "http://" + listeners[replicaCount].Addr().String()
	// RepairInterval < 0: no anti-entropy sweeps, so nothing runs on a timer
	// and byte counts repeat exactly.
	cfg := ClusterConfig{Peers: cl.replicaURLs, Replicas: replicaCount, RepairInterval: -1}
	handlers := make([]http.Handler, 0, replicaCount+1)
	for i, url := range cl.replicaURLs {
		dir := filepath.Join(root, fmt.Sprintf("replica-%d", i))
		srv, err := newServer(dir)
		if err != nil {
			return fail(err)
		}
		node := cfg
		node.Self = url
		if err := srv.EnableCluster(node); err != nil {
			return fail(err)
		}
		cl.replicaDirs = append(cl.replicaDirs, dir)
		handlers = append(handlers, cl.instrument(cl.replicaHTTP, "hub.server", srv.Handler()))
	}
	gw, err := newGateway(cfg)
	if err != nil {
		return fail(err)
	}
	handlers = append(handlers, cl.instrument(cl.gatewayHTTP, "hub.gateway", gw.Handler()))
	for i, ln := range listeners {
		counters := &cl.replicaNet
		if i == replicaCount {
			counters = &cl.gatewayNet
		}
		cl.serve(countingListener{ln, counters}, handlers[i])
	}
	return cl, nil
}

func (cl *cluster) serve(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h}
	cl.servers = append(cl.servers, hs)
	cl.serving.Add(1)
	go func() {
		defer cl.serving.Done()
		_ = hs.Serve(ln) // always ErrServerClosed after stop
	}()
}

// stop shuts every listener and waits for the serve goroutines to return.
func (cl *cluster) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, hs := range cl.servers {
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
	}
	cl.serving.Wait()
	cl.inventoryClient.CloseIdleConnections()
}

// instrument wraps a tier's handler: it feeds the tier's httpStats and, in
// the traced run, records one span per request named <tier>.<endpoint>.
func (cl *cluster) instrument(stats *httpStats, tier string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		level := levelGateway
		if tier == "hub.server" {
			level = levelServer
			if r.URL.Path == "/api/replicate" {
				level = levelReplica
			}
		}
		id := cl.tr.start(level, tier+"."+filepath.Base(r.URL.Path))
		next.ServeHTTP(&statusWriter{ResponseWriter: w, stats: stats, path: r.URL.Path}, r)
		cl.tr.end(level, id)
	})
}

// netSnap is a reading of everything the benchmark's listeners and handler
// wrappers count, per tier. Differences of two readings around an op give
// what that op caused.
type netSnap struct {
	gatewayRx, gatewayTx, gatewayRequests, gatewayErrors int64
	serverRx, serverTx, serverRequests, serverErrors     int64
	conns                                                int64
}

// snap on a nil cluster (a workload with no hub in its timed window) is zero.
func (cl *cluster) snap() netSnap {
	if cl == nil {
		return netSnap{}
	}
	s := netSnap{
		gatewayRx: cl.gatewayNet.rx.Load(), gatewayTx: cl.gatewayNet.tx.Load(),
		serverRx: cl.replicaNet.rx.Load(), serverTx: cl.replicaNet.tx.Load(),
		conns: cl.gatewayNet.accepts.Load() + cl.replicaNet.accepts.Load(),
	}
	cl.gatewayHTTP.mu.Lock()
	s.gatewayRequests, s.gatewayErrors = int64(cl.gatewayHTTP.requests), int64(cl.gatewayHTTP.errors)
	cl.gatewayHTTP.mu.Unlock()
	cl.replicaHTTP.mu.Lock()
	s.serverRequests, s.serverErrors = int64(cl.replicaHTTP.requests), int64(cl.replicaHTTP.errors)
	cl.replicaHTTP.mu.Unlock()
	return s
}

// add accumulates the difference to-from into s.
func (s *netSnap) add(to, from netSnap) {
	s.gatewayRx += to.gatewayRx - from.gatewayRx
	s.gatewayTx += to.gatewayTx - from.gatewayTx
	s.gatewayRequests += to.gatewayRequests - from.gatewayRequests
	s.gatewayErrors += to.gatewayErrors - from.gatewayErrors
	s.serverRx += to.serverRx - from.serverRx
	s.serverTx += to.serverTx - from.serverTx
	s.serverRequests += to.serverRequests - from.serverRequests
	s.serverErrors += to.serverErrors - from.serverErrors
	s.conns += to.conns - from.conns
}

// wireBytes is every byte through every benchmark-owned listener, both
// directions: client to gateway, gateway to replica, replica to replica.
func (s netSnap) wireBytes() int64 { return s.gatewayRx + s.gatewayTx + s.serverRx + s.serverTx }

// replicasList asks each replica's /api/inventory whether it lists name with
// the given archive digest.
func (cl *cluster) replicasList(ctx context.Context, name, digest string) error {
	if digest == "" {
		return errors.New("publish was acknowledged without a digest")
	}
	for _, base := range cl.replicaURLs {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/inventory", nil)
		if err != nil {
			return err
		}
		resp, err := cl.inventoryClient.Do(req)
		if err != nil {
			return err
		}
		var listed []struct {
			Name   string `json:"name"`
			SHA256 string `json:"sha256"`
		}
		err = json.NewDecoder(resp.Body).Decode(&listed)
		resp.Body.Close()
		if err != nil {
			return err
		}
		found := false
		for _, info := range listed {
			found = found || (info.Name == name && info.SHA256 == digest)
		}
		if !found {
			return fmt.Errorf("replica %s does not list %s with digest %s", base, name, digest)
		}
	}
	return nil
}

// awaitNextSecond returns once the wall clock has left the second of the last
// publish. The hub stamps publishes at one-second resolution and a replica
// keeps the record with the larger digest when two stamps are equal, so a
// republish of one name inside the same second may lawfully be declined.
func (cl *cluster) awaitNextSecond() {
	for time.Now().Unix() <= cl.lastPublish.Unix() {
		time.Sleep(5 * time.Millisecond)
	}
}
