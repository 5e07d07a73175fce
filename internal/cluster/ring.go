// Package cluster is the client side of the preservation network: it
// places content-addressed blobs across storage nodes with a consistent-
// hash ring, writes through replica quorums, falls back through replicas
// on reads (repairing what it finds broken), and runs the anti-entropy
// sweep that drives a damaged cluster back to full replication and 100%
// fixity.
//
// The design target is the DPHEP multi-site preservation model: the
// archive must survive the loss of any node, a network partition, and
// silent corruption of individual replicas — and converge back to health
// once the fault passes, without an operator replaying anything.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// vnodes is the virtual-node count per physical node. Enough points that
// load and rebalance movement stay near 1/N without making ring rebuilds
// expensive.
const vnodes = 64

// point is one virtual node on the hash circle.
type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring: node identities are hashed onto a
// uint64 circle at vnodes points each, and a digest's replica set is the
// first N distinct nodes clockwise from the digest's own hash. Placement
// is a pure function of (node set, digest) — every client that knows the
// membership computes the same owners, with no coordination service.
type Ring struct {
	mu     sync.RWMutex
	points []point // sorted by hash
	nodes  map[string]struct{}
}

// NewRing returns an empty ring.
func NewRing() *Ring {
	return &Ring{nodes: make(map[string]struct{})}
}

// ringHash maps a string onto the circle. SHA-256 (truncated) rather than
// a light mixing hash: placement must be identical across every client
// binary for the life of the archive, so the hash is chosen for stability
// and spread, not speed.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a node's virtual points. Adding a present node is a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < vnodes; i++ {
		r.points = append(r.points, point{hash: ringHash(fmt.Sprintf("%s#%d", node, i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a node's virtual points. Removing an absent node is a
// no-op.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owners returns the first n distinct nodes clockwise from the key's hash
// — the key's replica set, in preference order. Fewer than n members
// returns all of them.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n < 1 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}
