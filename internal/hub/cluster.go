package hub

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"modelhub/internal/obs"
)

// Cluster request headers. Replication and forwarding both ride the
// existing streamed-publish path (temp file + SHA-256 while streaming,
// DigestHeader verify), so these headers only carry routing intent and
// metadata — integrity is always the digest.
const (
	// ReplicaHeader marks a replication push from an owner peer; its value
	// is the sender's advertised base URL. A node receiving one stores the
	// blob locally and does not replicate further (the pushing owner is
	// already fanning out), which breaks replication loops.
	ReplicaHeader = "X-Hub-Replica-From"
	// ForwardedHeader marks a publish forwarded by a non-owner node or the
	// gateway. The receiving node stores it even if its own ring view says
	// it is not an owner, so disagreeing ring configurations degrade into
	// an extra replica instead of a forwarding loop.
	ForwardedHeader = "X-Hub-Forwarded"
	// RepoInfoHeader carries the JSON RepoInfo record of a replicated
	// blob: the receiving peer keeps the origin's publication timestamp
	// and model list instead of re-inspecting the archive.
	RepoInfoHeader = "X-Hub-Repo-Info"
)

// Cluster metrics (DESIGN.md §8): all no-ops until obs.Enable.
var (
	mForwarded     = obs.GetCounter("hub.cluster.publish.forwarded")
	mForwardFailed = obs.GetCounter("hub.cluster.publish.forward_failed")
	mReplicateOK   = obs.GetCounter("hub.cluster.replicate.success")
	mReplicateFail = obs.GetCounter("hub.cluster.replicate.failure")
	mReplicaRecv   = obs.GetCounter("hub.cluster.replicate.received")
	mReplicaSkip   = obs.GetCounter("hub.cluster.replicate.skipped_stale")
)

// ClusterConfig describes one node's view of a multi-node hub. The same
// Peers list (order-insensitive) and Replicas value must be handed to every
// node and to the gateway: placement is pure consistent hashing, so agreeing
// on the inputs is all the coordination the cluster needs.
type ClusterConfig struct {
	// Self is this node's advertised base URL, e.g. "http://10.0.0.1:8080".
	// It must appear in Peers (it is added if missing). Gateways leave it
	// empty — they route, they do not own.
	Self string
	// Peers are the base URLs of every storage node in the cluster.
	Peers []string
	// Replicas is the N-way replication factor. 0 selects 3; values above
	// the peer count are clamped to it.
	Replicas int
	// RepairInterval is the anti-entropy sweep period for
	// StartAntiEntropy. 0 selects 30s; negative disables the loop.
	RepairInterval time.Duration
	// PeerTimeout bounds one control request to a peer (inventory fetch,
	// replicate/forward/repair transfers get 10x this for streaming).
	// 0 selects 10s.
	PeerTimeout time.Duration
	// Client is the HTTP client used for peer traffic; nil selects
	// DefaultHTTPClient.
	Client *http.Client
}

// withDefaults normalizes the config: peers deduped via the ring, Self
// appended to Peers when missing, zero fields resolved.
func (c ClusterConfig) withDefaults() ClusterConfig {
	c.Self = strings.TrimRight(strings.TrimSpace(c.Self), "/")
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.RepairInterval == 0 {
		c.RepairInterval = 30 * time.Second
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 10 * time.Second
	}
	if c.Client == nil {
		c.Client = DefaultHTTPClient()
	}
	return c
}

// cluster is the resolved cluster state hanging off a Server (and, without
// a self identity, off a Gateway).
type cluster struct {
	self           string
	ring           *Ring
	peers          []string
	replicas       int
	repairInterval time.Duration
	peerTimeout    time.Duration
	hc             *http.Client
	relay          relay
}

// relay is everything that tells the two tiers handing a publish on to its
// owners apart: a storage node that does not own the name, and the gateway.
type relay struct {
	span           string // "hub.cluster.forward" or "hub.gateway.publish"
	from           string // ForwardedHeader stamp
	dir            string // spool directory; "" selects os.TempDir
	routed, failed *obs.Counter
}

func newCluster(cfg ClusterConfig, needSelf bool) (*cluster, error) {
	cfg = cfg.withDefaults()
	peers := cfg.Peers
	if needSelf {
		if cfg.Self == "" {
			return nil, fmt.Errorf("%w: cluster config needs a Self URL", ErrHub)
		}
		peers = append(append([]string{}, peers...), cfg.Self)
	}
	ring, err := NewRing(peers)
	if err != nil {
		return nil, err
	}
	replicas := cfg.Replicas
	if n := len(ring.Peers()); replicas > n {
		replicas = n
	}
	return &cluster{
		self:           cfg.Self,
		ring:           ring,
		peers:          ring.Peers(),
		replicas:       replicas,
		repairInterval: cfg.RepairInterval,
		peerTimeout:    cfg.PeerTimeout,
		hc:             cfg.Client,
	}, nil
}

// EnableCluster makes this server a member of a multi-node hub: publishes
// of names it does not own are forwarded to the owners, owned publishes are
// replicated to the other N-1 owners, and the replicate/repair endpoints
// come alive. Call it after NewServer and before serving requests; the
// anti-entropy loop is started separately with StartAntiEntropy.
func (s *Server) EnableCluster(cfg ClusterConfig) error {
	cl, err := newCluster(cfg, true)
	if err != nil {
		return err
	}
	cl.relay = relay{span: "hub.cluster.forward", from: cl.self, dir: s.dir, routed: mForwarded, failed: mForwardFailed}
	s.cluster = cl
	return nil
}

// newerThan reports whether a supersedes b under last-writer-wins:
// publication instant first, digest as the deterministic tie-break so all
// replicas converge on one record when two publishes carry the same instant.
// Stamps are parsed, not compared as strings: RFC 3339 trims trailing zeros
// off the fraction, so "…:00Z" sorts after "…:00.5Z". Owners stamp in
// nanoseconds; second-resolution stamps of older index entries parse too,
// and an unparseable one counts as the oldest.
func newerThan(a, b RepoInfo) bool {
	if ta, tb := publishedInstant(a), publishedInstant(b); !ta.Equal(tb) {
		return ta.After(tb)
	}
	return a.SHA256 > b.SHA256
}

// publishedInstant parses a record's stamp; an unparseable one is the zero
// instant.
func publishedInstant(info RepoInfo) time.Time {
	t, err := time.Parse(time.RFC3339Nano, info.PublishedAt)
	if err != nil {
		return time.Time{}
	}
	return t
}

// acceptReplica is the commit policy for replica receives and repair:
// take the record unless the local one is strictly newer. Equal records are
// re-accepted on purpose — that is how repair overwrites a corrupt blob
// whose index entry still looks right.
func acceptReplica(info RepoInfo) func(prev RepoInfo, exists bool) bool {
	return func(prev RepoInfo, exists bool) bool {
		return !exists || !newerThan(prev, info)
	}
}

// replicateOut pushes a freshly stored record to the other owners of its
// name, sequentially, each push a child span of the publish request trace:
// the blob goes to the peer's /api/replicate with its digest in DigestHeader
// and the metadata record in RepoInfoHeader. Failures are counted and
// logged, never fatal: the publish already committed locally, and
// anti-entropy re-converges the missing replicas.
func (cl *cluster) replicateOut(ctx context.Context, s *Server, info RepoInfo) {
	meta, err := json.Marshal(info)
	if err != nil {
		obs.Logger().Warn("replica record unencodable", "name", info.Name, "err", err)
		return
	}
	hdr := map[string]string{RepoInfoHeader: string(meta), ReplicaHeader: cl.self}
	for _, peer := range cl.ring.Owners(info.Name, cl.replicas) {
		if peer == cl.self {
			continue
		}
		rctx, span := obs.Start(ctx, "hub.cluster.replicate")
		span.SetAttr("hub.peer", peer)
		span.SetAttr("hub.name", info.Name)
		status, _, err := cl.postBlob(rctx, peer+"/api/replicate?name="+url.QueryEscape(info.Name),
			s.blobPath(info.Name, info.SHA256), info.SHA256, hdr)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s answered %d", peer, status)
		}
		if err != nil {
			span.SetError()
			mReplicateFail.Inc()
			obs.Logger().Warn("replica push failed", "name", info.Name, "peer", peer, "err", err)
		} else {
			mReplicateOK.Inc()
		}
		span.End()
	}
}

// postBlob POSTs the blob file at path to a peer endpoint u — Content-Length,
// the digest, hdr and the trace context set — under the streaming peer
// timeout, and returns the status with up to 4 KiB of the answer.
func (cl *cluster) postBlob(ctx context.Context, u, path, digest string, hdr map[string]string) (int, []byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, 10*cl.peerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, f)
	if err != nil {
		return 0, nil, err
	}
	req.ContentLength = st.Size()
	req.Header.Set("Content-Type", "application/gzip")
	req.Header.Set(DigestHeader, digest)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	obs.FromContext(ctx).Inject(req.Header)
	resp, err := cl.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return resp.StatusCode, msg, err
}

// handleReplicate receives a blob pushed by an owner peer: spooled against
// the record's digest, then committed under last-writer-wins.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		http.Error(w, ErrHub.Error()+": not a cluster node", http.StatusPreconditionFailed)
		return
	}
	name := r.URL.Query().Get("name")
	if err := validateName(name); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var info RepoInfo
	if err := json.Unmarshal([]byte(r.Header.Get(RepoInfoHeader)), &info); err != nil {
		http.Error(w, ErrHub.Error()+": bad "+RepoInfoHeader+": "+err.Error(), http.StatusBadRequest)
		return
	}
	if info.Name != name || info.SHA256 == "" {
		http.Error(w, ErrHub.Error()+": metadata does not match the request", http.StatusBadRequest)
		return
	}
	sp, err := spool(s.dir, r.Body, info.SHA256)
	if err != nil {
		ingestFailed(w, err)
		return
	}
	stored, err := s.commit(sp, info, acceptReplica(info))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if stored {
		mReplicaRecv.Inc()
	} else {
		mReplicaSkip.Inc()
	}
	writeJSON(w, map[string]bool{"stored": stored})
}

// relayPublish hands a publish to the name's replica set on behalf of a tier
// that does not store it (cl.relay says which): spool + verify first, so the
// upload is checked once and can be replayed, then POST the spooled archive
// to the owners in ring order until one answers. Connection failures and 5xx
// move on to the next owner; any definitive answer (2xx/4xx) is relayed
// as-is.
func (cl *cluster) relayPublish(w http.ResponseWriter, r *http.Request, name string) {
	ctx, span := obs.Start(r.Context(), cl.relay.span)
	span.SetAttr("hub.name", name)
	ok := false
	defer func() {
		if !ok {
			span.SetError()
		}
		span.End()
	}()
	sp, err := spool(cl.relay.dir, r.Body, r.Header.Get(DigestHeader))
	if err != nil {
		ingestFailed(w, err)
		return
	}
	defer sp.discard()
	hdr := map[string]string{ForwardedHeader: cl.relay.from}
	var lastErr error
	for _, peer := range cl.ring.Owners(name, cl.replicas) {
		status, body, err := cl.postBlob(ctx, peer+"/api/publish?name="+url.QueryEscape(name), sp.f.Name(), sp.digest, hdr)
		if err == nil && status >= 500 {
			err = fmt.Errorf("owner %s answered %d", peer, status)
		}
		if err != nil {
			lastErr = err
			continue
		}
		ok = status == http.StatusOK
		if ok {
			cl.relay.routed.Inc()
			span.SetAttr("hub.owner", peer)
			w.Header().Set(DigestHeader, sp.digest)
		}
		w.WriteHeader(status)
		//mhlint:ignore errcheck a response-write failure means the client went away; nothing to do
		_, _ = w.Write(body)
		return
	}
	cl.relay.failed.Inc()
	http.Error(w, fmt.Sprintf("%v: no owner of %q reachable: %v", ErrHub, name, lastErr), http.StatusBadGateway)
}

// handleInventory lists the local index as sorted JSON — the per-peer
// digest inventory that anti-entropy sweeps diff against each other.
func (s *Server) handleInventory(w http.ResponseWriter, r *http.Request) {
	writeRepoList(w, s.repos(""))
}

// fetchRepos GETs one peer's []RepoInfo answer for path (/api/inventory or
// /api/search?q=) under PeerTimeout, so one hung peer costs a sweep or a
// fan-out that long and no longer.
func (cl *cluster) fetchRepos(ctx context.Context, peer, path string) ([]RepoInfo, error) {
	ctx, cancel := context.WithTimeout(ctx, cl.peerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+path, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHub, err)
	}
	obs.FromContext(ctx).Inject(req.Header)
	resp, err := cl.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrHub, peer, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%w: %s answered %d", ErrHub, peer, resp.StatusCode)
	}
	var out []RepoInfo
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrHub, peer, err)
	}
	return out, nil
}
