package hub

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// vnodes is the number of virtual nodes each peer contributes to the
// ring. 64 points per peer keeps the expected load imbalance of a small
// cluster under a few percent while the ring stays tiny (a 16-node cluster
// is 1024 points, one binary search per lookup).
const vnodes = 64

// Ring is an immutable consistent-hash ring mapping string keys (published
// repository names) to an ordered list of owner peers. Each peer is hashed
// onto the ring at vnodes points; a key's owners are the first N distinct
// peers clockwise from the key's own hash. Adding or removing one peer
// therefore moves only ~K/len(peers) of K keys — the property the cluster's
// rebalancing story depends on.
//
// Hashing is SHA-256 truncated to 64 bits, so every process that agrees on
// the peer list computes identical placements — gateway, owners, and repair
// loops never need to exchange routing state.
type Ring struct {
	points []ringPoint
	peers  []string
}

type ringPoint struct {
	hash uint64
	peer string
}

// NewRing builds a ring over the given peer base URLs. Peers are normalized
// (trailing slash trimmed) and deduplicated; at least one peer is required.
func NewRing(peers []string) (*Ring, error) {
	seen := map[string]bool{}
	var normalized []string
	for _, p := range peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		normalized = append(normalized, p)
	}
	if len(normalized) == 0 {
		return nil, fmt.Errorf("%w: ring needs at least one peer", ErrHub)
	}
	sort.Strings(normalized)
	r := &Ring{peers: normalized, points: make([]ringPoint, 0, len(normalized)*vnodes)}
	for _, p := range normalized {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", p, v)), peer: p})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].peer < r.points[b].peer
	})
	return r, nil
}

// ringHash maps a string to its position on the ring: the first 8 bytes of
// its SHA-256, big-endian. Stable across processes and Go versions.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Peers returns the normalized, sorted peer list the ring was built over.
func (r *Ring) Peers() []string {
	out := make([]string, len(r.peers))
	copy(out, r.peers)
	return out
}

// Owners returns the first n distinct peers clockwise from key's hash: the
// replica set responsible for key, primary first. n is clamped to the peer
// count, so Owners(key, 3) on a 2-peer ring returns both peers.
func (r *Ring) Owners(key string, n int) []string {
	if n <= 0 || len(r.peers) == 0 {
		return nil
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	kh := ringHash(key)
	// First point with hash >= kh; wraps to 0 past the last point.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	owners := make([]string, 0, n)
	seen := map[string]bool{}
	for j := 0; len(owners) < n && j < len(r.points); j++ {
		p := r.points[(i+j)%len(r.points)].peer
		if !seen[p] {
			seen[p] = true
			owners = append(owners, p)
		}
	}
	return owners
}

// Owns reports whether peer is among the n owners of key.
func (r *Ring) Owns(key, peer string, n int) bool {
	for _, o := range r.Owners(key, n) {
		if o == peer {
			return true
		}
	}
	return false
}
