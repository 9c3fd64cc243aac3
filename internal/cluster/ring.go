// Package cluster turns independent ljqd daemons into a consistent-
// hash plan-cache cluster: a deterministic ring routes each canonical
// query fingerprint to the peer most likely to hold its plan, a
// circuit breaker per peer steers around dead peers, and a shipped
// snapshot warm-starts joining or recovering peers so a restart does
// not trigger a cold re-optimization storm.
//
// The routing degradation ladder, rung by rung:
//
//  1. primary peer — the ring owner of the fingerprint (cache
//     affinity: the same shape always lands on the same peer, so the
//     cluster-wide hit rate approaches the single-node rate);
//  2. ring successors — on primary failure or open breaker, the next
//     distinct peers clockwise on the ring, tried one at a time;
//  3. local compute — when every candidate peer is down, the router's
//     embedded serve.Server optimizes in-process. A user request
//     fails only when the request itself is defective (4xx) or its
//     context dies; peer failures never surface as errors while at
//     least one rung survives.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"joinopt/internal/fingerprint"
)

// DefaultReplicas is the default virtual-node count per peer. 64
// points per peer keeps the expected load imbalance across a handful
// of peers within a few percent while the ring stays tiny (a sorted
// slice of peers·64 uint64s).
const DefaultReplicas = 64

// MaxMemberWeight caps a member's virtual-point multiplier: a typo'd
// weight in a membership file must not explode the ring into millions
// of points.
const MaxMemberWeight = 64

// Member is one ring member: a peer base URL plus its arc weight. A
// weight of w contributes w·Replicas virtual points, so raising a
// member's weight only moves arcs ONTO that member (its existing
// points are untouched; new points claim arcs from whoever held them)
// and lowering it only moves arcs off — the property the scripted
// MoveArc chaos action relies on. Weight ≤ 0 is normalized to 1.
type Member struct {
	URL    string `json:"url"`
	Weight int    `json:"weight"`
}

// Ring is an immutable consistent-hash ring over peer names.
//
// A member with weight w contributes w·Replicas virtual points, each
// the first 8 bytes (big-endian) of SHA-256("peer#k"). A fingerprint
// hashes to the first 8 bytes of itself — it is already a SHA-256 of
// the canonical query, so its prefix is uniform — and is owned by the
// first point clockwise from that value. Everything is a pure function
// of the member set, so every node (and every routing client) derives
// the identical ring with no coordination.
type Ring struct {
	replicas int
	peers    []string
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	peer string
}

// NewRing builds a ring over the given peers, all at weight 1
// (deduplicated, order-insensitive: the ring layout depends only on
// the set). replicas ≤ 0 selects DefaultReplicas.
func NewRing(peers []string, replicas int) (*Ring, error) {
	members := make([]Member, 0, len(peers))
	for _, p := range peers {
		members = append(members, Member{URL: p, Weight: 1})
	}
	return NewRingMembers(members, replicas)
}

// NewRingMembers builds a weighted ring. Duplicate URLs collapse to
// one member with the larger weight (order-insensitive, like NewRing's
// dedup). replicas ≤ 0 selects DefaultReplicas.
func NewRingMembers(members []Member, replicas int) (*Ring, error) {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	weight := make(map[string]int, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m.URL == "" {
			return nil, fmt.Errorf("cluster: empty peer name")
		}
		w := m.Weight
		if w <= 0 {
			w = 1
		}
		if w > MaxMemberWeight {
			return nil, fmt.Errorf("cluster: member %s weight %d exceeds cap %d", m.URL, w, MaxMemberWeight)
		}
		if old, ok := weight[m.URL]; ok {
			if w > old {
				weight[m.URL] = w
			}
			continue
		}
		weight[m.URL] = w
		uniq = append(uniq, m.URL)
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer")
	}
	sort.Strings(uniq)
	r := &Ring{
		replicas: replicas,
		peers:    uniq,
		points:   make([]ringPoint, 0, len(uniq)*replicas),
	}
	for _, p := range uniq {
		for k := 0; k < weight[p]*replicas; k++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", p, k)))
			r.points = append(r.points, ringPoint{
				hash: binary.BigEndian.Uint64(sum[:8]),
				peer: p,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].peer < r.points[j].peer // hash ties broken stably
	})
	return r, nil
}

// Peers returns the ring membership, sorted.
func (r *Ring) Peers() []string {
	return append([]string(nil), r.peers...)
}

// key maps a canonical fingerprint onto the ring's hash space.
func key(fp fingerprint.Fingerprint) uint64 {
	return binary.BigEndian.Uint64(fp[:8])
}

// Primary returns the peer that owns fp.
func (r *Ring) Primary(fp fingerprint.Fingerprint) string {
	return r.points[r.search(key(fp))].peer
}

// Successors returns up to n distinct peers in ring order starting at
// fp's owner: the failover candidate list (element 0 is the primary).
func (r *Ring) Successors(fp fingerprint.Fingerprint, n int) []string {
	if n > len(r.peers) {
		n = len(r.peers)
	}
	if n <= 0 {
		return nil
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	start := r.search(key(fp))
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// search finds the index of the first point clockwise from h.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return i
}
