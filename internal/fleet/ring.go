// Package fleet implements hdlsd's sharded-sweep coordinator: it
// partitions a sweep's cells across N worker daemons by consistent-hash
// routing on the canonical config hash, fans the shards out as streaming
// sweep requests with per-cell deadlines, retries failures with
// exponential backoff and deterministic jitter, re-routes cells from lost
// or breaker-tripped workers to their consistent-hash successors, and
// merges the worker streams back into strict index order — so the merged
// response body stays byte-identical to a single daemon running the same
// sweep (DESIGN.md §10).
//
// Robustness is the point: every worker has an active health probe feeding
// a circuit breaker (closed → open → half-open), capacity loss degrades
// gracefully (503 + Retry-After before unbounded queueing), and the
// worker-side chaos layer (internal/serve) lets tests provoke every
// failure mode — delay, 5xx, dropped connection, mid-stream truncation —
// deterministically.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring mapping 64-bit cell routing keys
// (hdls.Config.HashKey) to workers. Each worker owns Replicas virtual
// points; a key is served by the first point clockwise from it. Because
// the mapping depends only on (worker names, replicas, key), every
// coordinator instance routes a given cell to the same worker — per-worker
// result caches stay hot and disjoint — and removing a worker moves only
// that worker's arcs to its successors, leaving every other assignment
// untouched.
type Ring struct {
	workers []string
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	worker int // index into workers
}

// NewRing builds a ring over the given worker names with the given number
// of virtual points per worker (minimum 1; 64 is a good default).
func NewRing(workers []string, replicas int) *Ring {
	if replicas < 1 {
		replicas = 1
	}
	r := &Ring{workers: append([]string(nil), workers...)}
	r.points = make([]ringPoint, 0, len(workers)*replicas)
	for wi, name := range r.workers {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(name, v), worker: wi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Equal hashes (vanishingly rare) tie-break on worker index so the
		// ring order is still a pure function of the worker list.
		return r.points[i].worker < r.points[j].worker
	})
	return r
}

// pointHash places virtual point v of a worker on the ring (FNV-64a over
// "name#v": fast, stable across processes, uniform enough for placement).
func pointHash(name string, v int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", name, v)
	return h.Sum64()
}

// Workers returns the ring's worker names in construction order.
func (r *Ring) Workers() []string { return r.workers }

// Successors returns every worker index in ring order starting from the
// owner of key: element 0 is the cell's home worker, element 1 the worker
// its arcs fall to if the home is lost, and so on. The slice is freshly
// allocated and always contains each worker exactly once.
func (r *Ring) Successors(key uint64) []int {
	out := make([]int, 0, len(r.workers))
	if len(r.points) == 0 {
		return out
	}
	seen := make([]bool, len(r.workers))
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for i := 0; i < len(r.points) && len(out) < len(r.workers); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.worker] {
			seen[p.worker] = true
			out = append(out, p.worker)
		}
	}
	return out
}
