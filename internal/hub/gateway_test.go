package hub

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// packedRepo packs a dlv repository into an in-memory archive stream.
func packedRepo(t *testing.T, root string) io.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := PackRepo(root, &buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// packedDigest is the digest a publish of the repository at root is stored
// under: PackRepo's bytes depend on the content alone.
func packedDigest(t *testing.T, root string) string {
	t.Helper()
	blob, err := io.ReadAll(packedRepo(t, root))
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(blob))
}

// gatewayFor boots a stateless gateway over the cluster's peers and returns
// a client pointed at it.
func gatewayFor(t *testing.T, tc *testCluster) (*Gateway, *Client) {
	t.Helper()
	gw, err := NewGateway(ClusterConfig{
		Peers:       tc.urls,
		Replicas:    tc.cfg.Replicas,
		peerTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return gw, NewClientWith(ts.URL, Options{Timeout: 5 * time.Second, Retries: 2, backoff: 10 * time.Millisecond})
}

func TestGatewayRoutesPublishAndPull(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	_, client := gatewayFor(t, tc)
	if err := client.Publish(context.Background(), makeRepo(t, "m"), "via-gateway"); err != nil {
		t.Fatal(err)
	}
	// The gateway holds nothing itself; the blob landed on exactly the
	// name's two owners.
	if got := tc.replicaCount("via-gateway"); got != 2 {
		t.Fatalf("replicas after gateway publish: %d, want 2", got)
	}
	if err := client.Pull(context.Background(), "via-gateway", t.TempDir()); err != nil {
		t.Fatalf("pull through gateway: %v", err)
	}
}

// Whichever entrance takes a publish — the gateway, a node that does not own
// the name, an owner — it ends on exactly the name's owners, under one digest.
func TestPublishEntrancesConverge(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	gw, gwClient := gatewayFor(t, tc)
	root := makeRepo(t, "m")
	for _, entrance := range []string{"gateway", "non-owner", "owner"} {
		name := "via-" + entrance
		owns := map[string]bool{}
		for _, u := range gw.ring.Owners(name, 2) {
			owns[u] = true
		}
		client := gwClient
		for i, u := range tc.urls {
			if entrance == "owner" && owns[u] || entrance == "non-owner" && !owns[u] {
				client = tc.client(i)
			}
		}
		if err := client.Publish(context.Background(), root, name); err != nil {
			t.Fatalf("publish through %s: %v", entrance, err)
		}
		digests := map[string]bool{}
		for _, u := range tc.urls {
			infos, err := gw.fetchRepos(context.Background(), u, "/api/inventory")
			if err != nil {
				t.Fatal(err)
			}
			held := ""
			for _, info := range infos {
				if info.Name == name {
					held = info.SHA256
					digests[held] = true
				}
			}
			if (held != "") != owns[u] {
				t.Errorf("through %s: node %s lists %q = %v, owner = %v", entrance, u, name, held != "", owns[u])
			}
		}
		if len(digests) != 1 {
			t.Errorf("through %s: owners hold digests %v, want one", entrance, digests)
		}
	}
}

func TestGatewayPullFailsOverDeadOwner(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	_, client := gatewayFor(t, tc)
	if err := client.Publish(context.Background(), makeRepo(t, "m"), "failover-model"); err != nil {
		t.Fatal(err)
	}
	// Kill the primary owner; the gateway must serve the pull from the
	// surviving replica, digest-verified end to end.
	primary := tc.nodes[0].server().cluster.ring.Owners("failover-model", 1)[0]
	for i, u := range tc.urls {
		if u == primary {
			tc.nodes[i].kill()
		}
	}
	if err := client.Pull(context.Background(), "failover-model", t.TempDir()); err != nil {
		t.Fatalf("pull with dead primary: %v", err)
	}
}

func TestGatewaySearchMergesAndDedups(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	_, client := gatewayFor(t, tc)
	names := []string{"search-a", "search-b", "search-c"}
	for _, name := range names {
		if err := client.Publish(context.Background(), makeRepo(t, "m"), name); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := client.Search(context.Background(), "search-")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("merged search results: %d (%v), want 3 deduplicated names", len(infos), infos)
	}
	for i, name := range names {
		if infos[i].Name != name {
			t.Fatalf("result %d: %q, want %q (sorted)", i, infos[i].Name, name)
		}
	}

	// With one node down every name still has a live replica (replicas=2
	// over 3 nodes), so the fanout keeps answering complete results.
	tc.nodes[0].kill()
	infos, err = client.Search(context.Background(), "search-")
	if err != nil {
		t.Fatalf("search with a dead peer: %v", err)
	}
	if len(infos) != 3 {
		t.Fatalf("search results with a dead peer: %d, want 3", len(infos))
	}
}

func TestGatewaySearchAllPeersDown(t *testing.T) {
	tc := newTestCluster(t, 2, 2)
	_, client := gatewayFor(t, tc)
	tc.nodes[0].kill()
	tc.nodes[1].kill()
	if _, err := client.Search(context.Background(), "anything"); !errors.Is(err, ErrHub) {
		t.Fatalf("search with every peer down: %v, want ErrHub", err)
	}
}

// A peer that accepts the request and never answers costs a search fan-out
// one peer timeout, not the caller's patience: the live peers' merged answer comes
// back on time.
func TestGatewaySearchBoundsHungPeer(t *testing.T) {
	tc := newTestCluster(t, 2, 2)
	if err := tc.client(0).Publish(context.Background(), makeRepo(t, "m"), "served"); err != nil {
		t.Fatal(err)
	}
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // until the gateway gives up on this peer
	}))
	defer hung.Close()
	gw, err := NewGateway(ClusterConfig{
		Peers:       append([]string{hung.URL}, tc.urls...),
		Replicas:    2,
		peerTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()
	client := NewClientWith(ts.URL, Options{Timeout: 5 * time.Second, Retries: -1})
	start := time.Now()
	infos, err := client.Search(context.Background(), "served")
	if err != nil || len(infos) != 1 || infos[0].Name != "served" {
		t.Fatalf("search with a hung peer = %v, %v; want the live peers' one record", infos, err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("search with a hung peer took %v at a 200ms peer timeout", took)
	}
}

// TestGatewayPullResumesAcrossNodeDeath is the mid-stream kill scenario:
// the owner serving a pull cuts the stream partway and dies; the client's
// Range resume goes back through the gateway, which fails over to the
// surviving replica, and the download completes digest-verified.
func TestGatewayPullResumesAcrossNodeDeath(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	if err := tc.client(0).Publish(context.Background(), makeRepo(t, "m"), "cut-model"); err != nil {
		t.Fatal(err)
	}
	primary := tc.nodes[0].server().cluster.ring.Owners("cut-model", 1)[0]
	var primaryNode *testNode
	for i, u := range tc.urls {
		if u == primary {
			primaryNode = tc.nodes[i]
		}
	}
	// Restart the primary with a lethal fault: the first full-archive pull
	// is severed after 100 bytes and the whole node dies with it.
	primaryNode.kill()
	var once sync.Once
	primaryNode.wrap = func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/api/pull" || r.Header.Get("Range") != "" {
				next.ServeHTTP(w, r)
				return
			}
			once.Do(func() {
				cw := &killingWriter{ResponseWriter: w, remaining: 100}
				next.ServeHTTP(cw, r)
				if hj, ok := w.(http.Hijacker); ok {
					if conn, _, err := hj.Hijack(); err == nil {
						//mhlint:ignore errcheck the connection is being severed on purpose
						_ = conn.Close()
					}
				}
				go primaryNode.kill()
			})
		})
	}
	tc.restart(primaryNode)

	_, client := gatewayFor(t, tc)
	if err := client.Pull(context.Background(), "cut-model", t.TempDir()); err != nil {
		t.Fatalf("pull across a mid-stream node death: %v", err)
	}
	primaryNode.wg.Wait()
}

// killingWriter truncates the response after its byte budget, mimicking a
// crash mid-stream.
type killingWriter struct {
	http.ResponseWriter
	remaining int64
}

var errTestCut = errors.New("stream cut (test fault injection)")

func (c *killingWriter) Write(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, errTestCut
	}
	if int64(len(p)) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.ResponseWriter.Write(p)
	c.remaining -= int64(n)
	if err == nil && c.remaining <= 0 {
		if f, ok := c.ResponseWriter.(http.Flusher); ok {
			f.Flush()
		}
		err = errTestCut
	}
	return n, err
}

// TestGatewayReadThroughDuringRebalance grows a 2-node cluster to 3 nodes
// and pulls a name whose ownership moved, through a gateway that already
// sees the 3-node ring: the new owner has no copy yet, so the gateway must
// read through to the node that still holds it.
func TestGatewayReadThroughDuringRebalance(t *testing.T) {
	tc := newTestCluster(t, 3, 1)
	oldRing, err := NewRing(tc.urls[:2])
	if err != nil {
		t.Fatal(err)
	}
	newRing := tc.nodes[0].server().cluster.ring
	name := ""
	for i := 0; i < 10000; i++ {
		cand := fmt.Sprintf("rebalanced-%d", i)
		if newRing.Owners(cand, 1)[0] == tc.urls[2] && oldRing.Owners(cand, 1)[0] != tc.urls[2] {
			name = cand
			break
		}
	}
	if name == "" {
		t.Fatal("no moved name found")
	}
	// Plant the blob on its pre-growth owner only (direct replicate push,
	// as the old 2-node cluster would have left it).
	oldOwner := oldRing.Owners(name, 1)[0]
	var oldIdx int
	for i, u := range tc.urls {
		if u == oldOwner {
			oldIdx = i
		}
	}
	plantBlob(t, tc.nodes[oldIdx].server(), name)

	// The gateway routes to the new owner first, gets a 404, and reads
	// through to the old owner: the pull never fails.
	_, client := gatewayFor(t, tc)
	if err := client.Pull(context.Background(), name, t.TempDir()); err != nil {
		t.Fatalf("pull during rebalance through gateway: %v", err)
	}
	// Anti-entropy on the new owner converges it; the pull then serves
	// from the new owner directly.
	if _, err := tc.nodes[2].server().RepairOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !tc.nodes[2].hasBlob(name) {
		t.Fatal("new owner did not converge")
	}
	if err := client.Pull(context.Background(), name, t.TempDir()); err != nil {
		t.Fatalf("pull after convergence: %v", err)
	}
}

// Two publishes of one name 1 ms apart, inside one second: the later one wins
// on every replica and stays the winner through anti-entropy repair. With
// second-resolution stamps both carried the same time, and the digest
// tie-break kept whichever blob hashed larger, here the earlier one.
func TestGatewayLastWriterWinsWithinOneSecond(t *testing.T) {
	tc := newTestCluster(t, 3, 3)
	var mu sync.Mutex
	now := time.Date(2026, 5, 1, 12, 0, 0, 100e6, time.UTC)
	for _, node := range tc.nodes {
		node.kill()
		node.clock = func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		}
		tc.restart(node)
	}
	_, client := gatewayFor(t, tc)
	// Publish the repository whose blob hashes larger first.
	repos := []string{makeRepo(t, "first"), makeRepo(t, "second")}
	digests := make([]string, len(repos))
	for i, root := range repos {
		digests[i] = packedDigest(t, root)
	}
	if digests[0] < digests[1] {
		repos[0], repos[1] = repos[1], repos[0]
		digests[0], digests[1] = digests[1], digests[0]
	}
	const name = "same-second"
	for i, root := range repos {
		if i > 0 {
			mu.Lock()
			now = now.Add(time.Millisecond)
			mu.Unlock()
		}
		if err := client.Publish(context.Background(), root, name); err != nil {
			t.Fatal(err)
		}
	}
	held := func(when string) {
		t.Helper()
		for i, node := range tc.nodes {
			srv := node.server()
			srv.mu.RLock()
			info := srv.index[name]
			srv.mu.RUnlock()
			if info.SHA256 != digests[1] || !node.hasBlob(name) {
				t.Errorf("%s: node %d holds %.12s, want the later publish %.12s", when, i, info.SHA256, digests[1])
			}
		}
	}
	held("after publishing")
	for _, node := range tc.nodes {
		if _, err := node.server().RepairOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	held("after repair")
}

// Instants order records, whatever the stamps' resolution: an index entry
// stamped to the second is older than a nanosecond stamp later in that
// second, though the strings sort the other way.
func TestNewerThanComparesInstants(t *testing.T) {
	older := RepoInfo{PublishedAt: "2026-01-01T00:00:00Z", SHA256: "ff"}
	newer := RepoInfo{PublishedAt: "2026-01-01T00:00:00.5Z", SHA256: "00"}
	if !newerThan(newer, older) || newerThan(older, newer) {
		t.Fatal("a later instant in the same second does not supersede a second-resolution stamp")
	}
	same := RepoInfo{PublishedAt: "2026-01-01T00:00:00.000Z", SHA256: "01"}
	if !newerThan(older, same) || newerThan(same, older) {
		t.Fatal("equal instants must fall to the digest tie-break")
	}
}
