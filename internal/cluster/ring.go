// Package cluster scales the admission service horizontally: a
// consistent-hash ring that maps admission nodes onto rtmdm-serve shard
// instances, an HTTP gateway that routes /v1/admit, /v1/analyze and
// /v1/simulate to those shards with bounded fan-out,
// retry/backoff and degraded-shard isolation, per-tenant quotas with
// weighted fairness, and a snapshot format for committed admission state
// so shards restart warm.
//
// Determinism is preserved per shard: a node name maps to exactly one
// shard for a fixed ring (shard list + replica count), the gateway
// forwards each admit to that shard without batching or reordering it,
// and the shard's own request_id-ordered admission contract then makes
// the committed state a pure function of the request sequence. See
// docs/CLUSTER.md.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Ring is an immutable consistent-hash ring over a fixed shard count.
// Each shard owns `replicas` virtual points placed by a SHA-256 based
// hash, so node keys spread evenly and adding a shard at the end moves
// only ~1/N of the keyspace. Safe for concurrent use.
type Ring struct {
	points []ringPoint
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// hash64 is the ring's key hash: the first 8 bytes of SHA-256, which is
// deterministic across processes and Go versions (unlike maphash) — the
// gateway and any out-of-process tool (loadgen's per-shard report) must
// agree on the node→shard map.
func hash64(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring over shards instances with the given virtual
// replica count per shard (replicas <= 0 uses the default 64).
func NewRing(shards, replicas int) (*Ring, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard, got %d", shards)
	}
	if replicas <= 0 {
		replicas = 64
	}
	r := &Ring{points: make([]ringPoint, 0, shards*replicas), shards: shards}
	for s := 0; s < shards; s++ {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64(fmt.Sprintf("shard-%d#%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Colliding virtual points order by shard so the ring is a pure
		// function of (shards, replicas) regardless of sort internals.
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Shards returns the shard count the ring was built over.
func (r *Ring) Shards() int { return r.shards }

// Shard maps a key (an admission node name, or any routing key) to its
// owning shard: the first virtual point clockwise from the key's hash.
func (r *Ring) Shard(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}
