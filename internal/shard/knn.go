// K-nearest-neighbor search over the sharded engine: probe shards in order
// of their distance to the query point, merge the per-shard top-k lists,
// and stop as soon as the next shard's bounding box is farther than the
// current k-th neighbor — the classic branch-and-bound pruning, applied at
// shard granularity.

package shard

import (
	"context"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
)

// KNN returns the k objects nearest to p (by minimum box distance), closest
// first, with IDs as a deterministic tie-break. Shards are probed nearest
// bounding box first, and probing stops once the next shard's box is
// farther than the current k-th neighbor. A probe first attempts the
// sub-index's shared read path under the read lock — on a converged shard,
// KNN traffic proceeds in parallel with range queries and other KNNs — and
// only falls back to the exclusive lock (refining the shard as a side
// effect, like every QUASII query, within the crack budget and without
// flushing its pending inserts) when the probed region is still cold.
// Safe for concurrent use; concurrent updates may or may not be reflected.
func (ix *Index) KNN(p geom.Point, k int) ([]core.Neighbor, error) {
	return ix.KNNCtx(context.Background(), p, k)
}

// KNNCtx is KNN with cooperative cancellation: the context is checked
// between shard probes (never inside one — a probe holds a shard lock and
// is not interruptible), and a cancelled search returns ctx.Err() with the
// neighbors merged so far. Probes run under guard (resilience.go): a shard
// that panics is quarantined and skipped, and the search carries on.
func (ix *Index) KNNCtx(ctx context.Context, p geom.Point, k int) ([]core.Neighbor, error) {
	ctx = cancellable(ctx)
	if k <= 0 {
		return nil, nil
	}
	type cand struct {
		sh *shardEntry
		d  float64
	}
	var cands []cand
	ix.forEach(func(sh *shardEntry) {
		cands = append(cands, cand{sh, sh.boundsBox().MinDistSq(p)})
	})
	sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })

	var best []core.Neighbor
	for _, c := range cands {
		if len(best) >= k && c.d > best[len(best)-1].DistSq {
			break
		}
		if err := cancelled(ctx); err != nil {
			return best, err
		}
		if c.sh.quarantined.Load() {
			continue
		}
		sh := c.sh
		var found []core.Neighbor
		var done bool
		healthy := sh.guard(false, func(sub subIndex) { found, done = sub.KNNShared(p, k) })
		if healthy && !done {
			healthy = sh.guard(true, func(sub subIndex) { found = sub.KNNBudgeted(p, k, sh.crackBudget) })
		}
		if !healthy {
			continue
		}
		best = mergeNeighbors(best, found, k)
	}
	return best, nil
}

// mergeNeighbors merges two distance-sorted neighbor lists into the k best,
// sorted by distance with ID as tie-break.
func mergeNeighbors(a, b []core.Neighbor, k int) []core.Neighbor {
	a = append(a, b...)
	sort.Slice(a, func(i, j int) bool {
		if a[i].DistSq != a[j].DistSq {
			return a[i].DistSq < a[j].DistSq
		}
		return a[i].ID < a[j].ID
	})
	if len(a) > k {
		a = a[:k]
	}
	return a
}
