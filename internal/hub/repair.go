package hub

import (
	"context"
	"fmt"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"modelhub/internal/obs"
)

// Repair metrics (DESIGN.md §8).
var (
	mRepairSweeps   = obs.GetCounter("hub.cluster.repair.sweeps")
	mRepairMissing  = obs.GetCounter("hub.cluster.repair.missing")
	mRepairStale    = obs.GetCounter("hub.cluster.repair.stale")
	mRepairCorrupt  = obs.GetCounter("hub.cluster.repair.corrupt")
	mRepairRepaired = obs.GetCounter("hub.cluster.repair.repaired")
	mRepairFailed   = obs.GetCounter("hub.cluster.repair.failed")
)

// RepairStats summarizes one anti-entropy sweep.
type RepairStats struct {
	PeersProbed int `json:"peers_probed"`
	PeersFailed int `json:"peers_failed"`
	// Missing, Stale, and Corrupt count owned names whose local replica
	// was absent, superseded by a newer record elsewhere, or failed its
	// on-disk digest check.
	Missing int `json:"missing"`
	Stale   int `json:"stale"`
	Corrupt int `json:"corrupt"`
	// Repaired and Failed count re-pull outcomes for those names.
	Repaired int `json:"repaired"`
	Failed   int `json:"failed"`
}

// RepairOnce runs one anti-entropy sweep: fetch every peer's digest
// inventory, merge it with the local index under last-writer-wins, and for
// each name this node owns re-pull (digest-verified) whatever is missing,
// stale, or corrupt from a peer that holds the wanted record. Every repair
// transfer is a child span of the sweep's "hub.cluster.repair" span.
//
// The sweep never deletes: names this node no longer owns after a ring
// change stay on disk, which is exactly the read-through window that lets
// pulls succeed against old owners while the new owners converge.
func (s *Server) RepairOnce(ctx context.Context) (RepairStats, error) {
	cl := s.cluster
	if cl == nil {
		return RepairStats{}, fmt.Errorf("%w: not a cluster node", ErrHub)
	}
	ctx, span := obs.Start(ctx, "hub.cluster.repair")
	failed := false
	defer func() {
		if failed {
			span.SetError()
		}
		span.End()
	}()
	mRepairSweeps.Inc()

	var stats RepairStats
	// desired is the cluster-wide winning record per name; sources lists
	// which peers advertise exactly that record (digest match), i.e. where
	// a repair pull can be verified against the wanted digest.
	desired := map[string]RepoInfo{}
	sources := map[string][]string{}
	merge := func(peer string, infos []RepoInfo) {
		for _, info := range infos {
			cur, ok := desired[info.Name]
			switch {
			case !ok || newerThan(info, cur):
				desired[info.Name] = info
				sources[info.Name] = nil
				if peer != "" {
					sources[info.Name] = []string{peer}
				}
			case info.SHA256 == cur.SHA256 && peer != "":
				sources[info.Name] = append(sources[info.Name], peer)
			}
		}
	}
	merge("", s.repos(""))
	for _, peer := range cl.peers {
		if peer == cl.self {
			continue
		}
		stats.PeersProbed++
		infos, err := cl.fetchRepos(ctx, peer, "/api/inventory")
		if err != nil {
			stats.PeersFailed++
			obs.Logger().Warn("anti-entropy inventory fetch failed", "peer", peer, "err", err)
			continue
		}
		merge(peer, infos)
	}

	for _, name := range slices.Sorted(maps.Keys(desired)) {
		if ctx.Err() != nil {
			failed = true
			return stats, ctx.Err()
		}
		if !cl.ring.Owns(name, cl.self, cl.replicas) {
			continue
		}
		want := desired[name]
		reason := s.replicaDefect(name, want)
		if reason == "" {
			continue
		}
		switch reason {
		case "missing":
			stats.Missing++
			mRepairMissing.Inc()
		case "stale":
			stats.Stale++
			mRepairStale.Inc()
		case "corrupt":
			stats.Corrupt++
			mRepairCorrupt.Inc()
		}
		if err := s.repairName(ctx, want, sources[name], reason); err != nil {
			stats.Failed++
			mRepairFailed.Inc()
			obs.Logger().Warn("anti-entropy repair failed", "name", name, "reason", reason, "err", err)
			continue
		}
		stats.Repaired++
		mRepairRepaired.Inc()
	}
	failed = stats.Failed > 0
	return stats, nil
}

// replicaDefect classifies the local copy of an owned name against the
// cluster-wide winning record: "" (healthy), "missing", "stale", or
// "corrupt" (on-disk bytes no longer hash to the indexed digest).
func (s *Server) replicaDefect(name string, want RepoInfo) string {
	s.mu.RLock()
	have, ok := s.index[name]
	s.mu.RUnlock()
	if !ok {
		return "missing"
	}
	if have.SHA256 != want.SHA256 && newerThan(want, have) {
		return "stale"
	}
	got, err := fileDigest(s.blobPath(name, have.SHA256))
	if err != nil || !strings.EqualFold(got, have.SHA256) {
		return "corrupt"
	}
	return ""
}

// repairName re-pulls one name's wanted archive from the first source peer
// that delivers bytes matching the wanted digest. Trying every source means
// a peer dying mid-repair costs one failed attempt, not the sweep.
func (s *Server) repairName(ctx context.Context, want RepoInfo, sources []string, reason string) error {
	rctx, span := obs.Start(ctx, "hub.cluster.repair.pull")
	span.SetAttr("hub.name", want.Name)
	span.SetAttr("hub.repair_reason", reason)
	repaired := false
	defer func() {
		if !repaired {
			span.SetError()
		}
		span.End()
	}()
	if len(sources) == 0 {
		return fmt.Errorf("%w: no peer holds %s@%s", ErrHub, want.Name, want.SHA256)
	}
	var lastErr error
	for _, peer := range sources {
		if err := s.fetchReplica(rctx, peer, want); err != nil {
			lastErr = err
			continue
		}
		repaired = true
		span.SetAttr("hub.peer", peer)
		return nil
	}
	return lastErr
}

// fetchReplica pulls want's archive from one peer, spools it against
// want.SHA256, and commits it under last-writer-wins.
func (s *Server) fetchReplica(ctx context.Context, peer string, want RepoInfo) error {
	if err := checkRecord(want); err != nil {
		return fmt.Errorf("%w: repair: %s advertises %v", ErrHub, peer, err)
	}
	cl := s.cluster
	actx, cancel := context.WithTimeout(ctx, 10*cl.peerTimeout)
	defer cancel()
	u := fmt.Sprintf("%s/api/pull?name=%s", peer, url.QueryEscape(want.Name))
	req, err := http.NewRequestWithContext(actx, http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("%w: repair: %v", ErrHub, err)
	}
	obs.FromContext(actx).Inject(req.Header)
	resp, err := cl.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%w: repair pull from %s: %v", ErrHub, peer, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: repair pull from %s failed (%d)", ErrHub, peer, resp.StatusCode)
	}
	sp, err := spool(s.dir, resp.Body, want.SHA256)
	if err != nil {
		return fmt.Errorf("%w: repair pull from %s: %v", ErrHub, peer, err)
	}
	_, _, err = s.commit(sp, want)
	return err
}

// StartAntiEntropy launches the background repair loop at the configured
// RepairInterval. The returned stop function cancels the loop and joins the
// goroutine; call it during shutdown. A non-positive interval (explicitly
// disabled) returns a no-op stop.
func (s *Server) StartAntiEntropy() (stop func()) {
	cl := s.cluster
	if cl == nil || cl.repairInterval <= 0 {
		return func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(cl.repairInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			if _, err := s.RepairOnce(ctx); err != nil && ctx.Err() == nil {
				obs.Logger().Warn("anti-entropy sweep failed", "err", err)
			}
		}
	}()
	return func() {
		cancel()
		wg.Wait()
	}
}

// handleRepair triggers one anti-entropy sweep on demand (POST /api/repair)
// and returns its stats — how the smoke tests and operators assert
// convergence without waiting out the background interval.
func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		http.Error(w, ErrHub.Error()+": not a cluster node", http.StatusPreconditionFailed)
		return
	}
	stats, err := s.RepairOnce(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, stats)
}
