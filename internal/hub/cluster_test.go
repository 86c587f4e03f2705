package hub

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// testNode is one storage node of a test cluster: a real TCP listener (so
// it can be killed and restarted on the same address, unlike httptest) with
// its own data directory.
type testNode struct {
	t    *testing.T
	dir  string
	addr string
	url  string

	mu  sync.Mutex
	srv *Server
	hs  *http.Server
	wg  sync.WaitGroup
	// wrap optionally decorates the handler on (re)start — fault injection.
	wrap func(http.Handler) http.Handler
	// clock, when set, replaces the server's clock on (re)start.
	clock func() time.Time
}

// testCluster boots n storage nodes with the given replication factor. The
// anti-entropy loop is disabled (sweeps run on demand via RepairOnce) and
// peer timeouts are short so dead-node requests fail fast.
type testCluster struct {
	t     *testing.T
	nodes []*testNode
	urls  []string
	cfg   ClusterConfig
}

func newTestCluster(t *testing.T, n, replicas int) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		tc.urls = append(tc.urls, "http://"+ln.Addr().String())
	}
	tc.cfg = ClusterConfig{
		Peers:          tc.urls,
		Replicas:       replicas,
		RepairInterval: -1, // sweeps run on demand in tests
		peerTimeout:    2 * time.Second,
	}
	for i := 0; i < n; i++ {
		node := &testNode{
			t:    t,
			dir:  t.TempDir(),
			addr: listeners[i].Addr().String(),
			url:  tc.urls[i],
		}
		tc.nodes = append(tc.nodes, node)
		tc.startNode(node, listeners[i])
	}
	t.Cleanup(func() {
		for _, node := range tc.nodes {
			node.kill()
		}
	})
	return tc
}

// startNode builds a fresh Server over the node's (persistent) data dir and
// serves it on ln until killed.
func (tc *testCluster) startNode(node *testNode, ln net.Listener) {
	tc.t.Helper()
	srv, err := NewServer(node.dir)
	if err != nil {
		tc.t.Fatal(err)
	}
	if node.clock != nil {
		srv.now = node.clock
	}
	cfg := tc.cfg
	cfg.Self = node.url
	if err := srv.EnableCluster(cfg); err != nil {
		tc.t.Fatal(err)
	}
	var handler http.Handler = srv.Handler()
	if node.wrap != nil {
		handler = node.wrap(handler)
	}
	hs := &http.Server{Handler: handler}
	node.mu.Lock()
	node.srv, node.hs = srv, hs
	node.mu.Unlock()
	node.wg.Add(1)
	go func() {
		defer node.wg.Done()
		//mhlint:ignore errcheck Serve always returns ErrServerClosed or a listener error after kill
		_ = hs.Serve(ln)
	}()
}

// kill closes the node's listener and every open connection — the abrupt
// death of a process, not a graceful drain — and joins the serve goroutine.
func (n *testNode) kill() {
	n.mu.Lock()
	hs := n.hs
	n.hs = nil
	n.mu.Unlock()
	if hs != nil {
		//mhlint:ignore errcheck Close on an already-closed server is fine in teardown
		_ = hs.Close()
	}
	n.wg.Wait()
}

// restart brings a killed node back on its old address with its old data
// directory, as a crashed process restarting would.
func (tc *testCluster) restart(node *testNode) {
	tc.t.Helper()
	var ln net.Listener
	var err error
	// The old listener's port lingers briefly on some kernels; retry.
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", node.addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		tc.t.Fatalf("relisten on %s: %v", node.addr, err)
	}
	tc.startNode(node, ln)
}

func (n *testNode) server() *Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv
}

// hasBlob reports whether the node's index has name and the stored blob's
// bytes still hash to the indexed digest.
func (n *testNode) hasBlob(name string) bool {
	srv := n.server()
	srv.mu.RLock()
	info, ok := srv.index[name]
	srv.mu.RUnlock()
	if !ok {
		return false
	}
	got, err := fileDigest(srv.blobPath(name, info.SHA256))
	return err == nil && strings.EqualFold(got, info.SHA256)
}

func (tc *testCluster) client(i int) *Client {
	return NewClientWith(tc.urls[i], Options{Timeout: 5 * time.Second, Retries: 1, backoff: 10 * time.Millisecond})
}

// replicaCount counts live, digest-valid copies of name across the cluster.
func (tc *testCluster) replicaCount(name string) int {
	count := 0
	for _, node := range tc.nodes {
		node.mu.Lock()
		alive := node.hs != nil
		node.mu.Unlock()
		if alive && node.hasBlob(name) {
			count++
		}
	}
	return count
}

func TestClusterReplicatesToAllOwners(t *testing.T) {
	tc := newTestCluster(t, 3, 3)
	if err := tc.client(0).Publish(context.Background(), makeRepo(t, "m"), "replicated"); err != nil {
		t.Fatal(err)
	}
	// Replication is synchronous with the publish response: every node
	// holds a digest-valid copy the moment the client returns.
	if got := tc.replicaCount("replicated"); got != 3 {
		t.Fatalf("replicas after publish: %d, want 3", got)
	}
	// Owners send ReplicaHeader to /api/replicate only. On /api/publish it
	// comes from outside, and switches nothing off: the 200 still means
	// every owner holds the blob.
	var tarball bytes.Buffer
	if err := PackRepo(makeRepo(t, "m2"), &tarball); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, tc.urls[0]+"/api/publish?name=header-forged", &tarball)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(ReplicaHeader, tc.urls[1])
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("publish carrying %s: status %d", ReplicaHeader, resp.StatusCode)
	}
	if got := tc.replicaCount("header-forged"); got != 3 {
		t.Fatalf("replicas after a publish carrying %s: %d, want 3", ReplicaHeader, got)
	}
}

func TestClusterForwardsPublishToOwner(t *testing.T) {
	tc := newTestCluster(t, 3, 1)
	root := makeRepo(t, "m")
	name := "routed-model"
	owner := tc.nodes[0].server().cluster.ring.Owners(name, 1)[0]
	// Publish to a node that is NOT the owner; the publish must land on
	// the owner anyway (and, with replicas=1, only there).
	var via int
	for i, u := range tc.urls {
		if u != owner {
			via = i
			break
		}
	}
	if err := tc.client(via).Publish(context.Background(), root, name); err != nil {
		t.Fatal(err)
	}
	for i, node := range tc.nodes {
		want := tc.urls[i] == owner
		if node.hasBlob(name) != want {
			t.Errorf("node %d (%s): hasBlob=%v, want %v", i, tc.urls[i], node.hasBlob(name), want)
		}
	}
}

func TestClusterSurvivesReplicaDeathMidPublish(t *testing.T) {
	tc := newTestCluster(t, 3, 3)
	dead := tc.nodes[2]
	dead.kill()

	// Publishing with a dead replica must still succeed: the live owners
	// commit, the dead peer's push fails softly.
	if err := tc.client(0).Publish(context.Background(), makeRepo(t, "m"), "during-outage"); err != nil {
		t.Fatalf("publish with a dead replica: %v", err)
	}
	if got := tc.replicaCount("during-outage"); got != 2 {
		t.Fatalf("live replicas: %d, want 2", got)
	}
	// Reads succeed from the survivors.
	if err := tc.client(1).Pull(context.Background(), "during-outage", t.TempDir()); err != nil {
		t.Fatalf("pull from survivor: %v", err)
	}

	// The node comes back empty-handed; one anti-entropy sweep restores
	// full replication, digest-verified.
	tc.restart(dead)
	stats, err := dead.server().RepairOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Missing != 1 || stats.Repaired != 1 || stats.Failed != 0 {
		t.Fatalf("repair stats: %+v", stats)
	}
	if got := tc.replicaCount("during-outage"); got != 3 {
		t.Fatalf("replicas after repair: %d, want 3", got)
	}
}

func TestClusterRepairHealsCorruptReplica(t *testing.T) {
	tc := newTestCluster(t, 3, 3)
	if err := tc.client(0).Publish(context.Background(), makeRepo(t, "m"), "bitrot"); err != nil {
		t.Fatal(err)
	}
	// Flip bytes in one node's blob without touching its index: the index
	// still looks right, only a digest check can tell.
	victim := tc.nodes[1].server()
	victim.mu.RLock()
	info := victim.index["bitrot"]
	victim.mu.RUnlock()
	path := victim.blobPath("bitrot", info.SHA256)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8 && i < len(blob); i++ {
		blob[i] ^= 0xff
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if tc.nodes[1].hasBlob("bitrot") {
		t.Fatal("corruption not visible to the digest check")
	}

	stats, err := victim.RepairOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corrupt != 1 || stats.Repaired != 1 {
		t.Fatalf("repair stats: %+v", stats)
	}
	if !tc.nodes[1].hasBlob("bitrot") {
		t.Fatal("blob still corrupt after repair")
	}
}

func TestClusterRepairSurvivesDeadSource(t *testing.T) {
	tc := newTestCluster(t, 3, 3)
	if err := tc.client(0).Publish(context.Background(), makeRepo(t, "m"), "resilient"); err != nil {
		t.Fatal(err)
	}
	// Node 1 loses its copy on disk AND node 2 (one of the two possible
	// repair sources) dies: the sweep must converge from node 0 alone.
	victim := tc.nodes[1].server()
	victim.mu.RLock()
	info := victim.index["resilient"]
	victim.mu.RUnlock()
	if err := os.Remove(victim.blobPath("resilient", info.SHA256)); err != nil {
		t.Fatal(err)
	}
	victim.mu.Lock()
	delete(victim.index, "resilient")
	victim.mu.Unlock()
	tc.nodes[2].kill()

	stats, err := victim.RepairOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Repaired != 1 || stats.Failed != 0 {
		t.Fatalf("repair stats: %+v", stats)
	}
	if !tc.nodes[1].hasBlob("resilient") {
		t.Fatal("repair did not converge with one source dead")
	}
}

// A repair source that sends its response headers and then no byte is cut
// within twice the stall bound (the peer timeout) at every request, and
// the sweep repairs the name from the next source.
func TestRepairCutsStalledSource(t *testing.T) {
	tc := newTestCluster(t, 3, 3)
	publishTo(t, tc.client(0), makeRepo(t, "m"), "stalled")
	const bound = 300 * time.Millisecond
	tc.cfg.peerTimeout = bound
	victim := tc.nodes[1]
	victim.kill()
	tc.restart(victim) // under the lowered peer timeout
	srv := victim.server()
	srv.mu.RLock()
	info := srv.index["stalled"]
	srv.mu.RUnlock()
	// Sources are tried in ring order: stall the first one.
	var stalled *testNode
	for _, peer := range srv.cluster.peers {
		for _, node := range tc.nodes {
			if stalled == nil && node != victim && node.url == peer {
				stalled = node
			}
		}
	}
	var mu sync.Mutex
	var held []time.Duration
	stalled.kill()
	stalled.wrap = func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/api/pull" {
				next.ServeHTTP(w, r)
				return
			}
			w.Header().Set(DigestHeader, info.SHA256)
			w.Header().Set("Content-Length", strconv.FormatInt(info.SizeBytes, 10))
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			start := time.Now()
			<-r.Context().Done()
			mu.Lock()
			held = append(held, time.Since(start))
			mu.Unlock()
		})
	}
	tc.restart(stalled)

	if err := os.Remove(srv.blobPath("stalled", info.SHA256)); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	delete(srv.index, "stalled")
	srv.mu.Unlock()
	stats, err := srv.RepairOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Repaired != 1 || stats.Failed != 0 || !victim.hasBlob("stalled") {
		t.Fatalf("repair stats: %+v", stats)
	}
	stalled.kill() // joins the stalled handlers
	mu.Lock()
	defer mu.Unlock()
	if len(held) == 0 {
		t.Fatal("repair never asked the stalled source")
	}
	for _, d := range held {
		if d > 2*bound {
			t.Errorf("stalled source held a repair request for %s, bound %s", d, bound)
		}
	}
}

// /api/replicate refuses a push whose body does not match its record's
// digest, a record without a stamp (only a client publish is stamped on
// arrival), and an upper-case digest, whose record file a restart would
// refuse as corrupt.
func TestReplicateRejectsDigestMismatch(t *testing.T) {
	tc := newTestCluster(t, 2, 2)
	sum := sha256.Sum256([]byte("junk"))
	for _, info := range []RepoInfo{
		{Name: "spoofed", SizeBytes: 4, PublishedAt: "2026-01-01T00:00:00Z", SHA256: strings.Repeat("ab", 32)},
		{Name: "spoofed", SizeBytes: 4, SHA256: digestString(sum[:])},
		{Name: "spoofed", SizeBytes: 4, PublishedAt: "2026-01-01T00:00:00Z", SHA256: strings.ToUpper(digestString(sum[:]))},
	} {
		meta, err := json.Marshal(info)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, tc.urls[0]+"/api/replicate?name=spoofed",
			bytes.NewReader([]byte("junk")))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(RepoInfoHeader, string(meta))
		req.Header.Set(ReplicaHeader, tc.urls[1])
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("replicate %+v: status %d, want 400", info, resp.StatusCode)
		}
		if tc.nodes[0].hasBlob("spoofed") {
			t.Fatal("mismatched replica must not be stored")
		}
	}
}

// A client republish through an owner whose clock runs 2 s behind the
// others wins on every owner: commit stamps a client record after the one
// it replaces, so the other owners take the push and repair keeps it.
// Stamped by that owner's clock alone, the others declined v2 as stale and
// the owner's next sweep pulled v1 back over it.
func TestLaggingOwnerRepublishSurvivesRepair(t *testing.T) {
	tc := newTestCluster(t, 3, 3)
	lagging := tc.nodes[1]
	lagging.kill()
	lagging.clock = func() time.Time { return time.Now().Add(-2 * time.Second) }
	tc.restart(lagging)
	const name = "lagged"
	v1, v2 := makeRepo(t, "v1"), makeRepo(t, "v2")
	publishTo(t, tc.client(0), v1, name)
	publishTo(t, tc.client(1), v2, name)
	for _, node := range tc.nodes {
		if _, err := node.server().RepairOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	want := packedDigest(t, v2)
	for i, node := range tc.nodes {
		srv := node.server()
		srv.mu.RLock()
		got := srv.index[name].SHA256
		srv.mu.RUnlock()
		if got != want || !node.hasBlob(name) {
			t.Errorf("node %d serves %.12s, want v2 %.12s", i, got, want)
		}
	}
}

// A node killed with no shutdown step and restarted on its own directory
// serves every acknowledged name with its acknowledged digest before any
// repair sweep, and its store lost no file. The top level of every data
// directory holds only the store: a build from before it, which reconciles
// top-level files only, finds nothing there to delete.
func TestKilledNodeRestartsWithEveryAcknowledgedName(t *testing.T) {
	tc := newTestCluster(t, 3, 3)
	_, client := gatewayFor(t, tc)
	roots := []string{makeRepo(t, "a"), makeRepo(t, "b")}
	acked := map[string]string{}
	for i := 0; i < 6; i++ { // names 0 and 1 are republished
		name := fmt.Sprintf("acked-%d", i%4)
		publishTo(t, client, roots[i%2], name)
		acked[name] = packedDigest(t, roots[i%2])
	}
	node := tc.nodes[1]
	held := serverFiles(t, node.server().dir)
	node.kill()
	tc.restart(node)
	srv := node.server()
	for name, digest := range acked {
		srv.mu.RLock()
		got := srv.index[name].SHA256
		srv.mu.RUnlock()
		if got != digest {
			t.Errorf("%s: the restarted node serves %.12s, want %.12s", name, got, digest)
		}
		if err := tc.client(1).Pull(context.Background(), name, t.TempDir()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if got := serverFiles(t, srv.dir); !slices.Equal(got, held) {
		t.Errorf("the store held %q before the kill and %q after the restart", held, got)
	}
	for i, n := range tc.nodes {
		if got := serverFiles(t, n.dir); !slices.Equal(got, []string{storeDir}) {
			t.Errorf("node %d: the data directory holds %q, want only %s", i, got, storeDir)
		}
	}
}

// TestNameLocksStayBounded is the regression test for the per-name lock
// leak: the locks map must be empty once no publish is in flight, no matter
// how many distinct names were ever published.
func TestNameLocksStayBounded(t *testing.T) {
	srv, client := newTestServer(t)
	for i := 0; i < 8; i++ {
		if err := client.Publish(context.Background(), makeRepo(t, "m"), fmt.Sprintf("name-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.nameLockCount(); got != 0 {
		t.Fatalf("nameLocks entries after publishes drained: %d, want 0", got)
	}
}

func TestNameLocksBoundedUnderContention(t *testing.T) {
	srv, client := newTestServer(t)
	roots := []string{makeRepo(t, "a"), makeRepo(t, "b")}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				name := fmt.Sprintf("contended-%d", (p+i)%3)
				if err := client.Publish(context.Background(), roots[i%2], name); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if got := srv.nameLockCount(); got != 0 {
		t.Fatalf("nameLocks entries after the hammer: %d, want 0", got)
	}
}

// plantBlob commits a small packed repository under name on one node,
// through the ingest path but behind routing's back — the state a ring
// change leaves behind.
func plantBlob(t *testing.T, srv *Server, name string) {
	t.Helper()
	sp, err := spool(srv.dir, packedRepo(t, makeRepo(t, "m")), "")
	if err != nil {
		t.Fatal(err)
	}
	info := RepoInfo{Name: name, SizeBytes: sp.size, Models: []string{"m"}, SHA256: sp.digest}
	if _, _, err := srv.commit(sp, info); err != nil {
		t.Fatal(err)
	}
}

// TestPullDuringRebalanceReadsThrough covers the rebalance window: a name
// published under a 2-node ring stays pullable when the ring grows to 3
// nodes and its ownership moves, because repair never deletes and the new
// owner converges via anti-entropy.
func TestPullDuringRebalanceReadsThrough(t *testing.T) {
	tc := newTestCluster(t, 3, 1)
	// Find a name whose 3-node owner is node 2 but whose 2-node owner
	// (old ring, before node 2 joined) is node 0 or 1 — i.e. a name that
	// moved when the cluster grew.
	oldRing, err := NewRing(tc.urls[:2])
	if err != nil {
		t.Fatal(err)
	}
	newRing := tc.nodes[0].server().cluster.ring
	name := ""
	for i := 0; i < 10000; i++ {
		cand := fmt.Sprintf("moved-%d", i)
		if newRing.Owners(cand, 1)[0] == tc.urls[2] && oldRing.Owners(cand, 1)[0] != tc.urls[2] {
			name = cand
			break
		}
	}
	if name == "" {
		t.Fatal("no moved name found")
	}
	oldOwner := oldRing.Owners(name, 1)[0]
	var oldIdx int
	for i, u := range tc.urls {
		if u == oldOwner {
			oldIdx = i
		}
	}
	// Plant the blob on the OLD owner only, replicating the state right
	// after the ring grew.
	plantBlob(t, tc.nodes[oldIdx].server(), name)

	// A pull routed to the new owner 404s locally — but one sweep on the
	// new owner pulls the blob over, and direct pulls from the old owner
	// keep working the whole time (repair never deletes).
	if err := tc.client(oldIdx).Pull(context.Background(), name, t.TempDir()); err != nil {
		t.Fatalf("pull from old owner during rebalance: %v", err)
	}
	stats, err := tc.nodes[2].server().RepairOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Repaired != 1 {
		t.Fatalf("repair stats: %+v", stats)
	}
	if err := tc.client(2).Pull(context.Background(), name, t.TempDir()); err != nil {
		t.Fatalf("pull from new owner after repair: %v", err)
	}
	if !tc.nodes[oldIdx].hasBlob(name) {
		t.Fatal("old owner's copy must survive the rebalance (read-through window)")
	}
}

// nameLockCount reports the live nameLocks entries (tests assert bounds).
func (s *Server) nameLockCount() int {
	s.lockMu.Lock()
	defer s.lockMu.Unlock()
	return len(s.nameLocks)
}

// An owner pushes to its replicas at once: both peers' /api/replicate
// handlers wait on one barrier before they read the push, so the publish
// gets its three replicas only if the two pushes overlap. One at a time,
// the first push would time out at the barrier and answer 503.
func TestReplicaPushesOverlap(t *testing.T) {
	tc := newTestCluster(t, 3, 3)
	var mu sync.Mutex
	arrived := 0
	release := make(chan struct{})
	barrier := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/api/replicate" {
				mu.Lock()
				if arrived++; arrived == 2 {
					close(release)
				}
				mu.Unlock()
				select {
				case <-release:
				case <-time.After(3 * time.Second):
					http.Error(w, "the other replica push never arrived", http.StatusServiceUnavailable)
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	for _, node := range tc.nodes[1:] {
		node.kill()
		node.wrap = barrier
		tc.restart(node)
	}
	if err := tc.client(0).Publish(context.Background(), makeRepo(t, "m"), "fanned-out"); err != nil {
		t.Fatal(err)
	}
	if got := tc.replicaCount("fanned-out"); got != 3 {
		t.Fatalf("replicas after publish: %d, want 3", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if arrived != 2 {
		t.Fatalf("%d replica pushes reached the barrier, want 2", arrived)
	}
}
