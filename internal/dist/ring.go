// Package dist scales the serving layer out to a replicated fleet: a
// consistent-hash router partitions streams across serve.Service
// replicas, and the replicas exchange model deltas (serve.CaptureDelta
// / ApplyDelta) so every member converges toward the model a single
// node would have learned from the union of the traffic.
//
// The pieces compose but stand alone: Ring is the hash ring, Replica
// wraps a service with the fleet sync endpoints and push loop, Router
// fronts the fleet and polls its members' readiness, and LocalFleet
// wires N replicas plus a router onto loopback listeners for tests,
// benchmarks, and the bwload fleet target.
package dist

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodes is the virtual-node count per member. 64 points per member
// keeps the stream load split within a few percent of even for small
// fleets while the ring stays tiny (a few KB).
const vnodes = 64

// Ring is an immutable consistent-hash ring: keys map to the member
// owning the first ring point at or after the key's hash. Rebuilding
// the ring with one member removed moves only that member's keys —
// streams on surviving replicas keep their owner, which is what keeps
// ticket redemption local during a replica loss.
type Ring struct {
	points  []ringPoint // sorted by hash
	members []string    // sorted, deduplicated
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds a ring over members with vnodes virtual nodes each.
// Duplicate members collapse; a nil or empty member set yields an
// empty ring whose Owner returns "".
func NewRing(members []string) *Ring {
	seen := make(map[string]bool, len(members))
	r := &Ring{}
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		r.members = append(r.members, m)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", m, v)), m})
		}
	}
	sort.Strings(r.members)
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.member < b.member // deterministic on (vanishingly rare) collisions
	})
	return r
}

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: first point owns the top arc
	}
	return r.points[i].member
}

// Members returns the ring's member set, sorted.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
