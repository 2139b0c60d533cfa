// Package cluster holds the sharding plane of the rule-serving fleet: a
// consistent-hash ring mapping tenant keys onto serve nodes (virtual nodes
// for balance), a versioned shard-map document routers and SDK clients
// exchange, and a liveness tracker that probes each node's /healthz and
// rebuilds the ring as nodes come up, drain, or die.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per physical node. 128 vnodes
// keeps the per-node load spread within a few percent of uniform for the
// fleet sizes this plane targets while keeping ring rebuilds cheap.
const DefaultVNodes = 128

// Ring is an immutable consistent-hash ring over a set of node names.
// Lookup walks clockwise from the key's hash and returns distinct nodes in
// ring order, so key→node assignments move minimally when membership
// changes: only keys whose arc gained or lost a vnode re-home.
type Ring struct {
	nodes  []string
	vnodes int
	hashes []uint64 // sorted vnode positions
	owner  []int    // hashes[i] belongs to nodes[owner[i]]
}

// hashKey positions a key on the ring: FNV-1a 64 for a fast, stable,
// dependency-free digest, then a splitmix64 avalanche so the short,
// near-identical keys routed here ("tenant-0017", "node#42") spread
// uniformly over the full 64-bit circle — raw FNV leaves the high bits
// correlated for such keys, which skews arc lengths badly.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewRing builds a ring over nodes with the given virtual-node count per
// node (≤ 0 means DefaultVNodes). Node order does not matter; duplicate
// names are rejected.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := map[string]bool{}
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node %q", n)
		}
		seen[n] = true
	}
	sorted := append([]string{}, nodes...)
	sort.Strings(sorted)
	r := &Ring{
		nodes:  sorted,
		vnodes: vnodes,
		hashes: make([]uint64, 0, len(sorted)*vnodes),
		owner:  make([]int, 0, len(sorted)*vnodes),
	}
	type vn struct {
		h     uint64
		owner int
	}
	all := make([]vn, 0, len(sorted)*vnodes)
	for i, n := range sorted {
		for v := 0; v < vnodes; v++ {
			all = append(all, vn{hashKey(fmt.Sprintf("%s#%d", n, v)), i})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].h != all[b].h {
			return all[a].h < all[b].h
		}
		// Ties (astronomically rare) break on owner so the ring is
		// deterministic whatever the input order was.
		return all[a].owner < all[b].owner
	})
	for _, v := range all {
		r.hashes = append(r.hashes, v.h)
		r.owner = append(r.owner, v.owner)
	}
	return r, nil
}

// Nodes returns the member names, sorted.
func (r *Ring) Nodes() []string { return append([]string{}, r.nodes...) }

// VNodes returns the virtual-node count per node.
func (r *Ring) VNodes() int { return r.vnodes }

// Len returns the physical node count.
func (r *Ring) Len() int { return len(r.nodes) }

// Lookup returns up to n distinct nodes for key in ring order: the first is
// the primary owner, the rest are the failover replicas a router retries in
// sequence. n ≤ 0 returns every node in ring order.
func (r *Ring) Lookup(key string, n int) []string {
	if len(r.nodes) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hashKey(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	out := make([]string, 0, n)
	taken := make(map[int]bool, n)
	for i := 0; i < len(r.hashes) && len(out) < n; i++ {
		o := r.owner[(start+i)%len(r.hashes)]
		if !taken[o] {
			taken[o] = true
			out = append(out, r.nodes[o])
		}
	}
	return out
}

// Primary returns the key's owning node ("" on an empty ring).
func (r *Ring) Primary(key string) string {
	owners := r.Lookup(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}
