package hub

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"modelhub/internal/atomicfile"
	"modelhub/internal/obs"
)

// maxPublishBytes bounds one published archive (compressed). A var so the
// limit-handling tests can lower it without uploading a gigabyte.
var maxPublishBytes int64 = 1 << 30

// tmpPrefix marks in-flight files in the data directory, atomicfile's temp
// files included. validateName rejects leading dots, so no blob can ever
// collide with the prefix, and the startup scan (load) may delete anything
// carrying it.
const tmpPrefix = atomicfile.TempPrefix

// RepoInfo is the search-result record for one published repository.
type RepoInfo struct {
	Name        string   `json:"name"`
	SizeBytes   int64    `json:"size_bytes"`
	PublishedAt string   `json:"published_at"`
	Models      []string `json:"models"`
	// SHA256 is the hex digest of the stored archive; it names the blob
	// file on disk and travels in DigestHeader on pulls.
	SHA256 string `json:"sha256,omitempty"`
}

// Server is the hosted ModelHub: it stores published repositories on disk
// and answers search/pull requests. Create one with NewServer and mount its
// Handler on an http.Server (or httptest).
//
// The data directory is the index. Each stored repository is two files in
// its repos/ subdirectory: the content-addressed blob
// <name>.<sha256>.tar.gz and its RepoInfo record <name>.<sha256>.json,
// written whole through atomicfile. Publishes stream to a temp file, are
// hashed while streaming, and commit under a per-name lock: blob rename,
// record write, in-memory index update, and only then the unlink of the
// superseded record and blob — so a concurrent pull never sees a torn
// archive and a crash at any point leaves only files the next startup removes.
type Server struct {
	dir string // the repos/ subdirectory of the data directory
	mu  sync.RWMutex
	// index holds metadata per published name.
	index map[string]RepoInfo
	now   func() time.Time

	// lockMu guards nameLocks; each per-name mutex serializes the
	// promote + index-update critical section of concurrent publishes.
	// Entries are refcounted and removed once uncontended, so the map
	// stays bounded by the number of in-flight publishes, not the number
	// of names ever published.
	lockMu    sync.Mutex
	nameLocks map[string]*nameLock

	// cluster is non-nil once EnableCluster made this node part of a
	// multi-node hub: it holds the ring, the replication factor, and the
	// peer HTTP client used for replicate pushes and anti-entropy repair.
	cluster *cluster
}

// nameLock is one entry of Server.nameLocks: the per-name mutex plus the
// number of holders/waiters keeping the entry alive.
type nameLock struct {
	mu   sync.Mutex
	refs int
}

const (
	// storeDir holds a node's files inside its data directory. A build
	// from before it skips directories when it reconciles, so started on a
	// directory this build wrote it finds nothing to delete.
	storeDir  = "repos"
	blobExt   = ".tar.gz"
	recordExt = ".json"
)

// NewServer stores published repositories under dir/repos. It builds the
// index from one scan of that directory (load). A data directory whose top
// level holds index.json, index.log or a *.tar.gz is a retired layout, and
// a corrupt record makes the whole directory suspect: both are refused with
// ErrHub and left as they are.
func NewServer(dir string) (*Server, error) {
	if err := refuseRetired(dir); err != nil {
		return nil, err
	}
	s := &Server{dir: filepath.Join(dir, storeDir), index: map[string]RepoInfo{}, now: time.Now, nameLocks: map[string]*nameLock{}}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHub, err)
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// refuseRetired fails on a data directory in a layout this build does not
// read: the pre-digest <name>.tar.gz blobs, or the index.json + index.log
// index beside <name>.<sha256>.tar.gz blobs. It reads, never writes.
func refuseRetired(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("%w: %v", ErrHub, err)
	}
	for _, e := range entries {
		base := e.Name()
		if base == "index.json" || base == "index.log" || !e.IsDir() && strings.HasSuffix(base, blobExt) {
			return fmt.Errorf("%w: %s holds %s: a retired data-directory layout, which is not read", ErrHub, dir, base)
		}
	}
	return nil
}

// load builds the index from the store directory. A record whose blob
// exists is an entry; when a crash left two complete pairs for one name,
// newerThan picks the entry. The rest is removed: a record without its blob
// or a blob without its record (a commit never acknowledged), the other
// pair (a superseded commit whose unlink a crash cut short), and temp
// files. A corrupt record is refused before anything is removed.
func (s *Server) load() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrHub, err)
	}
	blobs := map[string]bool{}
	var records []RepoInfo
	for _, e := range entries {
		base := e.Name()
		switch {
		case e.IsDir() || strings.HasPrefix(base, tmpPrefix):
			// Directories stay; temp files are removed below.
		case strings.HasSuffix(base, blobExt):
			blobs[base] = true
		case strings.HasSuffix(base, recordExt):
			blob, err := os.ReadFile(filepath.Join(s.dir, base))
			if err != nil {
				return fmt.Errorf("%w: %v", ErrHub, err)
			}
			info, err := decodeRecord(base, blob)
			if err != nil {
				return err
			}
			records = append(records, info)
		}
	}
	for _, info := range records {
		cur, ok := s.index[info.Name]
		if blobs[blobFileName(info.Name, info.SHA256)] && (!ok || newerThan(info, cur)) {
			s.index[info.Name] = info
		}
	}
	keep := map[string]bool{}
	for name, info := range s.index {
		keep[blobFileName(name, info.SHA256)] = true
		keep[recordFileName(name, info.SHA256)] = true
	}
	for _, e := range entries {
		base := e.Name()
		stray := strings.HasPrefix(base, tmpPrefix) || strings.HasSuffix(base, blobExt) || strings.HasSuffix(base, recordExt)
		if e.IsDir() || keep[base] || !stray {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, base)); err != nil {
			return fmt.Errorf("%w: removing stray %s: %v", ErrHub, base, err)
		}
	}
	return nil
}

// decodeRecord parses the record file base holding blob. It accepts only a
// record whose name and digest are valid and name the file it was read
// from; anything else is corruption (ErrHub).
func decodeRecord(base string, blob []byte) (RepoInfo, error) {
	var info RepoInfo
	if err := json.Unmarshal(blob, &info); err != nil {
		return RepoInfo{}, fmt.Errorf("%w: corrupt record %s: %v", ErrHub, base, err)
	}
	if err := checkRecord(info); err != nil {
		return RepoInfo{}, fmt.Errorf("%w: corrupt record %s: %v", ErrHub, base, err)
	}
	if recordFileName(info.Name, info.SHA256) != base {
		return RepoInfo{}, fmt.Errorf("%w: record %s holds %s@%s", ErrHub, base, info.Name, info.SHA256)
	}
	return info, nil
}

// checkRecord accepts a record only with a name a publish could have
// carried and a digest in digestString's form.
func checkRecord(info RepoInfo) error {
	if err := validateName(info.Name); err != nil {
		return err
	}
	if len(info.SHA256) != 64 {
		return fmt.Errorf("%w: bad digest %q", ErrHub, info.SHA256)
	}
	for _, c := range info.SHA256 {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return fmt.Errorf("%w: bad digest %q", ErrHub, info.SHA256)
		}
	}
	return nil
}

// syncClose fsyncs and closes an already-written file, reporting the first
// failure — the durability step before an atomic rename promotes the file.
func syncClose(f *os.File) error {
	if err := f.Sync(); err != nil {
		//mhlint:ignore errcheck the sync error takes precedence over cleanup
		_ = f.Close()
		return err
	}
	return f.Close()
}

// blobFileName and recordFileName are the content-addressed base names of a
// stored archive and of its record. Names are restricted to a safe charset
// by validateName; digests are lowercase hex.
func blobFileName(name, digest string) string   { return name + "." + digest + blobExt }
func recordFileName(name, digest string) string { return name + "." + digest + recordExt }

func (s *Server) blobPath(name, digest string) string {
	return filepath.Join(s.dir, blobFileName(name, digest))
}

func (s *Server) recordPath(name, digest string) string {
	return filepath.Join(s.dir, recordFileName(name, digest))
}

// lockName serializes publishes of one name; the returned func releases.
// The entry is refcounted: the last releaser deletes it, so names that are
// not being published right now cost no memory — the map is bounded by
// concurrent publishes, not by every name the server ever stored.
func (s *Server) lockName(name string) func() {
	s.lockMu.Lock()
	l := s.nameLocks[name]
	if l == nil {
		l = &nameLock{}
		s.nameLocks[name] = l
	}
	l.refs++
	s.lockMu.Unlock()
	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		s.lockMu.Lock()
		l.refs--
		if l.refs == 0 {
			delete(s.nameLocks, name)
		}
		s.lockMu.Unlock()
	}
}

func validateName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("%w: bad repository name %q", ErrHub, name)
	}
	for _, r := range name {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
			r == '-' || r == '_' || r == '.') {
			return fmt.Errorf("%w: bad repository name %q", ErrHub, name)
		}
	}
	if strings.HasPrefix(name, ".") {
		return fmt.Errorf("%w: bad repository name %q", ErrHub, name)
	}
	return nil
}

// Handler returns the HTTP API:
//
//	POST /api/publish?name=N   (body: tar.gz)  -> 200
//	GET  /api/search?q=substr                  -> JSON []RepoInfo
//	GET  /api/pull?name=N                      -> tar.gz (Range supported)
//
// Pull responses carry Content-Length, an X-Content-SHA256 digest header,
// and a digest-derived ETag, and honour Range/If-Range so interrupted
// clients resume from their verified offset. The mux answers 405 to any
// other method on a route.
//
// The mux is wrapped in the obs middleware stack: panic recovery is always
// active (a panicking handler yields a 500 with an ErrHub body instead of a
// dead connection), and request metrics under hub.http.* plus structured
// request logs follow the global obs gate.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/publish", s.handlePublish)
	mux.HandleFunc("GET /api/search", s.handleSearch)
	mux.HandleFunc("GET /api/pull", s.handlePull)
	// Cluster surface: replicate receives blobs pushed by owner peers and
	// repair triggers one anti-entropy sweep on demand (both answer 412
	// until EnableCluster is called); inventory lists the local index and
	// is always served — it is what peers diff against during repair.
	mux.HandleFunc("POST /api/replicate", s.handleReplicate)
	mux.HandleFunc("GET /api/inventory", s.handleInventory)
	mux.HandleFunc("POST /api/repair", s.handleRepair)
	// The flight recorder rides the API mux so every deployment (and every
	// httptest server in the suite) serves GET /debug/traces and accepts
	// client-side trace exports on POST. WrapHandler excludes /debug/ paths
	// from tracing, so scraping it cannot fill the ring with itself.
	mux.Handle("/debug/traces", obs.TracesHandler())
	return obs.WrapHandler(mux, obs.MiddlewareOptions{
		Prefix:    "hub.http",
		PanicBody: ErrHub.Error() + ": internal server error",
	})
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if err := validateName(name); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cl := s.cluster
	if cl != nil && r.Header.Get(ForwardedHeader) == "" && !cl.ring.Owns(name, cl.self, cl.replicas) {
		// Not an owner of this name: spool and hand the publish to the
		// replica set, exactly as the gateway does. ForwardedHeader breaks
		// forward loops when peers disagree about ring membership.
		cl.relayPublish(w, r, name)
		return
	}

	sp, err := spool(s.dir, r.Body, r.Header.Get(DigestHeader))
	if err != nil {
		ingestFailed(w, err)
		return
	}
	defer sp.discard()
	models, err := inspectArchive(r.Context(), sp.f.Name())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	info := RepoInfo{
		Name:      name,
		SizeBytes: sp.size,
		Models:    models,
		SHA256:    sp.digest,
	}
	// commit stamps the record: a client publish carries none.
	info, _, err = s.commit(sp, info)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if cl != nil {
		// Push the fresh record to the other owners while the publisher
		// waits: a 200 means every reachable replica holds the blob.
		// Unreachable peers are converged by the anti-entropy loop.
		cl.replicateOut(r.Context(), s, info)
	}
	mPublishBytes.Observe(float64(info.SizeBytes))
	w.Header().Set(DigestHeader, info.SHA256)
	w.WriteHeader(http.StatusOK)
}

// repos lists the index records whose name or models contain q (lower
// case; "" matches every record).
func (s *Server) repos(q string) []RepoInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []RepoInfo
	for _, info := range s.index {
		if q == "" || strings.Contains(strings.ToLower(info.Name), q) || matchModels(info.Models, q) {
			out = append(out, info)
		}
	}
	return out
}

// writeJSON answers 200 with v as the JSON body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	//mhlint:ignore errcheck a response-write failure means the client went away; nothing to do
	_ = json.NewEncoder(w).Encode(v)
}

// writeRepoList answers with the records sorted by name. An empty list
// encodes as the JSON array [], never null — strict clients reject null where
// a list is promised.
func writeRepoList(w http.ResponseWriter, infos []RepoInfo) {
	if infos == nil {
		infos = []RepoInfo{}
	}
	sort.Slice(infos, func(a, b int) bool { return infos[a].Name < infos[b].Name })
	writeJSON(w, infos)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	writeRepoList(w, s.repos(strings.ToLower(r.URL.Query().Get("q"))))
}

func matchModels(models []string, q string) bool {
	for _, m := range models {
		if strings.Contains(strings.ToLower(m), q) {
			return true
		}
	}
	return false
}

func (s *Server) handlePull(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if err := validateName(name); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Resolve the current digest and open its blob. Content addressing
	// makes the pair exact: an open handle always matches the digest it was
	// resolved from, even while a republish promotes a new blob. If the
	// blob vanished between the index read and the open (republish unlinked
	// it), the re-read index names the new digest.
	var info RepoInfo
	var f *os.File
	for attempt := 0; ; attempt++ {
		var ok bool
		s.mu.RLock()
		info, ok = s.index[name]
		s.mu.RUnlock()
		if !ok {
			http.Error(w, "unknown repository", http.StatusNotFound)
			return
		}
		var err error
		f, err = os.Open(s.blobPath(name, info.SHA256))
		if err == nil {
			break
		}
		if !os.IsNotExist(err) || attempt >= 4 {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if r.Header.Get("Range") != "" {
		mPullResumed.Inc()
	}
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set(DigestHeader, info.SHA256)
	w.Header().Set("ETag", etagFor(info.SHA256))
	cw := &countingResponseWriter{ResponseWriter: w}
	// ServeContent supplies Content-Length and Range/If-Range semantics
	// over the open (immutable) blob handle.
	http.ServeContent(cw, r, "", st.ModTime(), f)
	mPullBytes.Observe(float64(cw.n))
}

// countingResponseWriter counts response-body bytes for the
// hub.transfer.pull.bytes histogram.
type countingResponseWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingResponseWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}
