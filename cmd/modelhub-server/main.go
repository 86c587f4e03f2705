// Command modelhub-server runs the hosted ModelHub service (paper Fig. 3,
// remote side): an HTTP server that stores published DLV repositories and
// answers search and pull requests from dlv clients.
//
// Usage:
//
//	modelhub-server [-addr :8080] [-data DIR] [-metrics] [-trace-buffer N]
//	                [-log-level LEVEL] [-drain-timeout D] [-flaky-pull-cut N]
//	                [-peers URL,URL,...] [-self URL] [-replicas N]
//	                [-repair-interval D] [-gateway]
//
// Cluster mode: with -peers (and -self naming this node's own URL in that
// list), the node joins a consistent-hash cluster — publishes route to each
// name's N owners (-replicas, default 3), owners replicate to each other,
// and a background anti-entropy loop (-repair-interval, default 30s,
// negative disables) re-pulls missing, stale, or corrupt replicas.
//
// With -gateway, the process is a stateless routing tier instead of a
// storage node: it serves the same client API, routing publishes and pulls
// by ring position with failover and fanning searches out to all peers.
// Gateways take -peers but no -data or -self.
//
// With -metrics, the live metrics registry is enabled and served as JSON at
// /metrics (expvar-style flat keys), the net/http/pprof profiling handlers
// are mounted under /debug/pprof/, and distributed tracing is on: the
// newest -trace-buffer traces (default 256; 0 disables tracing) are held in
// the in-process flight recorder at /debug/traces, which also accepts
// client-side trace exports on POST. With -log-level (info for request
// lines), hub request logs go to stderr via log/slog, stamped with
// trace_id/span_id when made under a traced request.
//
// On SIGTERM or SIGINT the server shuts down gracefully: the listener
// closes immediately and in-flight requests get up to -drain-timeout to
// finish before the process exits.
//
// -flaky-pull-cut N is a fault-injection hook for the transfer-path smoke
// tests: every full-archive pull response (one without a Range header) is
// cut after N bytes and the connection is severed, exactly as a server
// killed mid-stream would — clients are expected to resume via Range.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"modelhub/internal/hub"
	"modelhub/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data", "modelhub-data", "directory for published repositories")
	metrics := flag.Bool("metrics", false, "enable the metrics registry; serve /metrics and /debug/pprof/")
	traceBuffer := flag.Int("trace-buffer", obs.DefaultTraceBufferSize,
		"with -metrics: keep the newest N traces in the /debug/traces flight recorder (0 disables tracing)")
	logLevel := flag.String("log-level", "", "log to stderr at this level (debug, info, warn, error)")
	drain := flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	flakyCut := flag.Int64("flaky-pull-cut", 0, "fault injection: sever full-archive pull responses after N bytes (testing only)")
	peersFlag := flag.String("peers", "", "comma-separated base URLs of the cluster's storage nodes")
	selfURL := flag.String("self", "", "this node's own base URL as it appears to peers (required with -peers, ignored with -gateway)")
	replicas := flag.Int("replicas", 0, "N-way replication factor (0 = default 3, clamped to the peer count)")
	repairInterval := flag.Duration("repair-interval", 0, "anti-entropy sweep period (0 = default 30s, negative disables)")
	gateway := flag.Bool("gateway", false, "run as a stateless routing gateway over -peers instead of a storage node")
	flag.Parse()

	if err := obs.ConfigureLogging(*logLevel); err != nil {
		log.Fatalf("modelhub-server: %v", err)
	}
	clusterCfg := hub.ClusterConfig{
		Self:           *selfURL,
		Peers:          splitPeers(*peersFlag),
		Replicas:       *replicas,
		RepairInterval: *repairInterval,
	}
	var handler http.Handler
	stopRepair := func() {}
	switch {
	case *gateway:
		if *peersFlag == "" {
			log.Fatalf("modelhub-server: -gateway requires -peers")
		}
		gw, err := hub.NewGateway(clusterCfg)
		if err != nil {
			log.Fatalf("modelhub-server: %v", err)
		}
		handler = newMux(gw.Handler(), *metrics, *traceBuffer)
		log.Printf("modelhub-server: gateway over %d peer(s), %d-way replication", len(clusterCfg.Peers), *replicas)
	default:
		srv, err := hub.NewServer(*dataDir)
		if err != nil {
			log.Fatalf("modelhub-server: %v", err)
		}
		if *peersFlag != "" {
			if err := srv.EnableCluster(clusterCfg); err != nil {
				log.Fatalf("modelhub-server: %v", err)
			}
			stopRepair = srv.StartAntiEntropy()
			log.Printf("modelhub-server: cluster node %s, %d peer(s)", *selfURL, len(clusterCfg.Peers))
		}
		handler = newMux(srv.Handler(), *metrics, *traceBuffer)
	}
	defer stopRepair()
	if *flakyCut > 0 {
		log.Printf("modelhub-server: FAULT INJECTION: cutting full pull responses after %d bytes", *flakyCut)
		handler = flakyPullCut(handler, *flakyCut)
	}
	hs := newHTTPServer(*addr, handler)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("modelhub-server listening on %s, storing repositories in %s", *addr, *dataDir)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("modelhub-server: %v", err)
		}
	case <-ctx.Done():
		stop()
		log.Printf("modelhub-server: shutting down, draining for up to %s", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("modelhub-server: drain incomplete, forcing close: %v", err)
			//nolint:errcheck // the process is exiting either way
			_ = hs.Close()
		}
		<-errc
		log.Printf("modelhub-server: shutdown complete")
	}
}

// readHeaderTimeout bounds how long a connection may take to send a
// request's headers, and idleTimeout how long a keep-alive connection may
// wait for its next request, so a peer that goes quiet cannot hold a
// connection and its goroutine forever. idleTimeout is longer than the hub
// client's 90 s IdleConnTimeout: the client always drops an idle
// connection first, so no publish is sent on one the server is closing.
// Neither is a flag; readHeaderTimeout is a var only so a test can lower it.
var readHeaderTimeout = 10 * time.Second

const idleTimeout = 2 * time.Minute

// newHTTPServer serves handler on addr under the transport bounds above.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// splitPeers parses the -peers flag into a list of base URLs, dropping
// empty entries and surrounding whitespace.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// newMux mounts the hub API (storage node or gateway) and, when metrics is
// set, enables the obs registry plus tracing and adds the /metrics and
// /debug/pprof/ endpoints (/debug/traces is mounted by the hub handler
// itself).
func newMux(api http.Handler, metrics bool, traceBuffer int) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", api)
	if metrics {
		obs.Enable()
		obs.SetService("modelhub-server")
		if traceBuffer > 0 {
			obs.EnableTracing()
			obs.SetTraceBufferSize(traceBuffer)
		}
		mux.Handle("/metrics", obs.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// flakyPullCut wraps next so that full-archive pull responses (no Range
// header) are truncated after n body bytes and the underlying connection is
// hijacked and closed — the client observes exactly what a server crash
// mid-stream produces. Range requests pass through untouched, so a
// resuming client completes the transfer.
func flakyPullCut(next http.Handler, n int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/pull" || r.Header.Get("Range") != "" {
			next.ServeHTTP(w, r)
			return
		}
		cw := &cutResponseWriter{ResponseWriter: w, remaining: n}
		next.ServeHTTP(cw, r)
		if cw.cut {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					//nolint:errcheck // the connection is being severed on purpose
					_ = conn.Close()
				}
			}
		}
	})
}

// cutResponseWriter forwards writes until its byte budget is spent, then
// reports a write error so the handler stops streaming.
type cutResponseWriter struct {
	http.ResponseWriter
	remaining int64
	cut       bool
}

var errStreamCut = errors.New("stream cut (fault injection)")

func (c *cutResponseWriter) Write(p []byte) (int, error) {
	if c.cut {
		return 0, errStreamCut
	}
	if int64(len(p)) <= c.remaining {
		n, err := c.ResponseWriter.Write(p)
		c.remaining -= int64(n)
		return n, err
	}
	n, err := c.ResponseWriter.Write(p[:c.remaining])
	c.remaining = 0
	c.cut = true
	if err != nil {
		return n, err
	}
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	return n, errStreamCut
}
