package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ring is a consistent-hash ring over the fleet's static membership. Each
// node contributes `replicas` virtual points hashed from its ID, and a
// plan key is owned by the node whose point follows the key's hash
// clockwise. Because the points depend only on (node IDs, replicas),
// every node of a fleet computes the same owner for the same key — the
// property that lets the fleet share one logical content-addressed cache
// with no coordination traffic.
type ring struct {
	points []ringPoint // sorted by hash, ties broken by node ID
	nodes  []string    // sorted node IDs
}

type ringPoint struct {
	hash uint64
	node string
}

// newRing builds the ring for the given node IDs with replicas virtual
// points per node.
func newRing(nodes []string, replicas int) *ring {
	ids := append([]string(nil), nodes...)
	sort.Strings(ids)
	r := &ring{nodes: ids, points: make([]ringPoint, 0, len(ids)*replicas)}
	for _, n := range ids {
		for i := 0; i < replicas; i++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", n, i)))
			r.points = append(r.points, ringPoint{binary.BigEndian.Uint64(sum[:8]), n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// keyHash positions a plan key (the service's sha256 cache key) on the
// ring. The key is already a hash, but re-hashing keeps the placement
// independent of the key's own encoding.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// preference returns every node ordered by ring distance from key: the
// owner first, then the failover successors in the order the proxy
// should try them. The slice is freshly allocated and always a
// permutation of the full membership.
func (r *ring) preference(key string) []string {
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.nodes))
	seen := make(map[string]bool, len(r.nodes))
	for k := 0; k < len(r.points) && len(out) < len(r.nodes); k++ {
		p := r.points[(i+k)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
