package hub

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"modelhub/internal/obs"
	"modelhub/internal/par"
)

// Gateway metrics (DESIGN.md §8).
var (
	mGwPublish      = obs.GetCounter("hub.cluster.gateway.publish.routed")
	mGwPull         = obs.GetCounter("hub.cluster.gateway.pull.routed")
	mGwPullFailover = obs.GetCounter("hub.cluster.gateway.pull.failover")
	mGwSearchFanout = obs.GetCounter("hub.cluster.gateway.search.fanout")
	mGwPeerErrors   = obs.GetCounter("hub.cluster.gateway.peer_errors")
)

// Gateway is the stateless routing tier in front of a replicated hub
// cluster: it speaks the exact client API (/api/publish, /api/search,
// /api/pull), so dlv clients point at the gateway and never learn the
// topology.
//
//   - Publishes are spooled, digest-verified, and handed to the name's
//     replica set in ring order (the owner then fans out to its peers).
//   - Pulls are routed to the owners first and read through every remaining
//     peer on miss — a name whose owners just changed (rebalance) or died
//     (failure) is still served by whichever node holds the blob, and a
//     gateway-side mid-stream cut is healed by the client's Range resume
//     landing on the next healthy peer.
//   - Searches fan out to all peers concurrently and return merged results,
//     deduplicated by name under last-writer-wins.
//
// The gateway holds no index and no blobs: consistent hashing over the
// shared peer list is its only routing state, so any number of gateways can
// run side by side.
type Gateway struct{ *cluster }

// NewGateway builds a gateway over cfg.Peers. cfg.Self is ignored — the
// gateway is not a replica.
func NewGateway(cfg ClusterConfig) (*Gateway, error) {
	cfg.Self = ""
	cl, err := newCluster(cfg, false)
	if err != nil {
		return nil, err
	}
	cl.relay = relay{span: "hub.gateway.publish", from: "gateway", routed: mGwPublish, failed: mGwPeerErrors}
	return &Gateway{cl}, nil
}

// Handler returns the gateway's HTTP surface, wrapped in the same obs
// middleware stack as a storage node (hub.http.* metrics, panic recovery,
// trace extraction) and serving the /debug/traces flight recorder.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/publish", g.handlePublish)
	mux.HandleFunc("GET /api/search", g.handleSearch)
	mux.HandleFunc("GET /api/pull", g.handlePull)
	mux.HandleFunc("GET /api/inventory", g.handleInventory)
	mux.Handle("/debug/traces", obs.TracesHandler())
	return obs.WrapHandler(mux, obs.MiddlewareOptions{
		Prefix:    "hub.http",
		PanicBody: ErrHub.Error() + ": internal server error",
	})
}

// handlePublish relays the upload to the name's owners (relayPublish).
func (g *Gateway) handlePublish(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if err := validateName(name); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	g.relayPublish(w, r, name)
}

// handlePull routes a pull to the name's owners first, then reads through
// every remaining peer: rebalanced or partially-failed clusters keep
// serving as long as one node holds the blob. Range and If-Range headers
// pass through untouched, so client resume semantics are identical to
// talking to a storage node directly.
func (g *Gateway) handlePull(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if err := validateName(name); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, span := obs.Start(r.Context(), "hub.gateway.pull")
	span.SetAttr("hub.name", name)
	ok := false
	defer func() {
		if !ok {
			span.SetError()
		}
		span.End()
	}()

	candidates := g.pullOrder(name)
	lastStatus := http.StatusBadGateway
	lastBody := ErrHub.Error() + ": no peer reachable"
	for i, peer := range candidates {
		u := fmt.Sprintf("%s/api/pull?name=%s", peer, url.QueryEscape(name))
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		copyHeader(req.Header, r.Header, "Range", "If-Range", "If-None-Match", "Accept-Encoding")
		obs.FromContext(ctx).Inject(req.Header)
		resp, err := g.hc.Do(req)
		if err != nil {
			mGwPeerErrors.Inc()
			continue
		}
		if resp.StatusCode == http.StatusNotFound || resp.StatusCode >= 500 {
			lastStatus = resp.StatusCode
			//mhlint:ignore errcheck best-effort read of the error body for the message
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
			//mhlint:ignore errcheck best-effort close before moving to the next peer
			_ = resp.Body.Close()
			lastBody = strings.TrimSpace(string(msg))
			if resp.StatusCode >= 500 {
				mGwPeerErrors.Inc()
			}
			continue
		}
		// Definitive answer (200, 206, 304, 416, 4xx): relay it.
		if i > 0 {
			mGwPullFailover.Inc()
		}
		ok = resp.StatusCode < 400
		if ok {
			mGwPull.Inc()
		}
		span.SetAttr("hub.peer", peer)
		span.SetAttrInt("hub.failover_hops", int64(i))
		relayResponse(w, resp)
		//mhlint:ignore errcheck the relay already finished or failed with the client
		_ = resp.Body.Close()
		return
	}
	http.Error(w, lastBody, lastStatus)
}

// pullOrder is the peer probe order for one name: its owners in ring
// order, then every other peer (the read-through set for rebalances).
func (g *Gateway) pullOrder(name string) []string {
	owners := g.ring.Owners(name, g.replicas)
	inOwners := map[string]bool{}
	for _, o := range owners {
		inOwners[o] = true
	}
	out := append([]string{}, owners...)
	for _, p := range g.peers {
		if !inOwners[p] {
			out = append(out, p)
		}
	}
	return out
}

// relayResponse copies a peer response — transfer headers, status, body —
// to the client.
func relayResponse(w http.ResponseWriter, resp *http.Response) {
	copyHeader(w.Header(), resp.Header,
		"Content-Type", "Content-Length", "Content-Range", "Accept-Ranges",
		"Last-Modified", "ETag", DigestHeader)
	w.WriteHeader(resp.StatusCode)
	//mhlint:ignore errcheck a mid-stream relay failure is healed by the client's Range resume
	_, _ = io.Copy(w, resp.Body)
}

// copyHeader copies the named header keys from src to dst when present.
func copyHeader(dst, src http.Header, keys ...string) {
	for _, k := range keys {
		if vs := src.Values(k); len(vs) > 0 {
			dst[http.CanonicalHeaderKey(k)] = append([]string{}, vs...)
		}
	}
}

// handleSearch fans the query out to every peer concurrently and merges
// the answers: deduplicated by name with the newest record winning, sorted,
// always a JSON array. The search succeeds while at least one peer answers.
func (g *Gateway) handleSearch(w http.ResponseWriter, r *http.Request) {
	g.fanout(w, r, "hub.gateway.search", "/api/search?q="+url.QueryEscape(r.URL.Query().Get("q")))
}

// handleInventory serves the merged cluster inventory — every name the
// cluster holds with its winning record. Handy for debugging and for the
// smoke tests' convergence asserts.
func (g *Gateway) handleInventory(w http.ResponseWriter, r *http.Request) {
	g.fanout(w, r, "hub.gateway.inventory", "/api/inventory")
}

// fanout GETs path on every peer concurrently and writes the merged,
// deduplicated []RepoInfo answer.
func (g *Gateway) fanout(w http.ResponseWriter, r *http.Request, spanName, path string) {
	ctx, span := obs.Start(r.Context(), spanName)
	ok := false
	defer func() {
		if !ok {
			span.SetError()
		}
		span.End()
	}()
	mGwSearchFanout.Inc()
	results := make([][]RepoInfo, len(g.peers))
	errs := make([]error, len(g.peers))
	//mhlint:ignore errcheck every fetch returns nil; its error is kept in errs
	_ = par.For(len(g.peers), len(g.peers), func(i int) error {
		results[i], errs[i] = g.fetchRepos(ctx, g.peers[i], path)
		return nil
	})
	merged := map[string]RepoInfo{}
	answered := 0
	for i := range results {
		if errs[i] != nil {
			mGwPeerErrors.Inc()
			continue
		}
		answered++
		for _, info := range results[i] {
			if cur, exists := merged[info.Name]; !exists || newerThan(info, cur) {
				merged[info.Name] = info
			}
		}
	}
	span.SetAttrInt("hub.peers_answered", int64(answered))
	if answered == 0 {
		http.Error(w, ErrHub.Error()+": no peer reachable", http.StatusBadGateway)
		return
	}
	ok = true
	out := make([]RepoInfo, 0, len(merged))
	for _, info := range merged {
		out = append(out, info)
	}
	writeRepoList(w, out)
}
