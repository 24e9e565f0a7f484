package core

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// Neighbor is one k-nearest-neighbor result: an object ID and its squared
// box distance to the query point.
type Neighbor struct {
	ID     int32
	DistSq float64
}

// positionProbe collects the raw lane positions of v's rows intersecting q
// — no tombstone filtering; callers post-filter by ID. KNN and the delete
// locator are written once over a probe and handed one of two:
// positionsShared, the read-only walk, which reports ok == false when a
// touched slice still needs exclusive work, or positionsRefining, which
// cracks within the budget in flight and always answers.
type positionProbe func(ix *Index, v *Version, q geom.Box, pos []int32) ([]int32, bool)

// positionsRefining is the exclusive probe: queryPositions refines around q
// up to the crack budget in flight and scans whatever the budget left
// uncracked, so it always answers. It requires the exclusive lock, under
// which the live version v layers over exactly the lanes and hierarchy the
// walk reorganizes (v.table == ix.data).
func (ix *Index) positionsRefining(_ *Version, q geom.Box, pos []int32) ([]int32, bool) {
	return ix.queryPositions(q, pos), true
}

// KNN returns the k objects nearest to p (by minimum box distance), closest
// first. The paper positions range queries as "the building block for many
// other spatial queries" (Sec. 2); KNN is implemented exactly that way: a
// search cube sized from the data density doubles until it holds k
// candidates, and one final query at the k-th candidate's distance
// guarantees no closer object is missed. Like every QUASII query, each probe
// refines the index around p as a side effect. Pending inserts and
// tombstones are merged at ranking time, so KNN never flushes.
func (ix *Index) KNN(p geom.Point, k int) []Neighbor {
	return ix.KNNBudgeted(p, k, -1)
}

// KNNBudgeted is KNN performing at most budget crack passes over all its
// probes together (see QueryBudgeted); negative means unlimited. Requires
// the exclusive lock.
func (ix *Index) KNNBudgeted(p geom.Point, k, budget int) []Neighbor {
	ix.remCracks = max(budget, -1)
	nn, _ := ix.knn(ix.live.Load(), p, k, (*Index).positionsRefining)
	ix.remCracks = -1
	return nn
}

// knn is the one expanding-cube search, over v's view through probe. Lane
// candidates are post-filtered by v's tombstones and every visible pending
// object joins the ranking (rankVisible), so the answer is exact at v
// whatever the probe geometry. ok == false means the probe needs exclusive
// work. The probes never record heat on the shared path: one KNN re-walks
// the same slices once per expansion, which would overweight them.
func (ix *Index) knn(v *Version, p geom.Point, k int, probe positionProbe) (nn []Neighbor, ok bool) {
	n := v.table.Len()
	visible := n + len(v.pending) - v.deleted.Len()
	if k <= 0 || visible <= 0 {
		return nil, true
	}
	k = min(k, visible)
	if n == 0 {
		return rankVisible(nil, v, p, k), true // everything lives in pending
	}
	span := v.dataMBB
	// Initial cube: volume sized for an expected 2k objects under a uniform
	// density assumption; clamped to a sane floor.
	side := math.Cbrt(span.Volume() * 2 * float64(k) / float64(n))
	if side <= 0 || math.IsNaN(side) {
		side = 1
	}
	maxSide := 0.0
	for d := 0; d < geom.Dims; d++ {
		maxSide = math.Max(maxSide, span.Extent(d))
	}
	var pos []int32
	for {
		if pos, ok = probe(ix, v, geom.BoxAt(p, side), pos[:0]); !ok {
			return nil, false
		}
		if len(pos) >= k || side > 2*maxSide+1 {
			break
		}
		side *= 2
	}
	nn = rankVisible(pos, v, p, k)
	if len(nn) < k {
		// Tombstones, a far-away p, or k close to n starved the capped probe
		// cube, and a partial candidate set is not necessarily the nearest
		// one: widen to everything so the ranking is exact.
		if pos, ok = probe(ix, v, span.Expand(geom.Point{1, 1, 1}), pos[:0]); !ok {
			return nil, false
		}
		nn = rankVisible(pos, v, p, k)
	}
	if len(nn) < k {
		return nn, true
	}
	// Exactness pass: the k-th candidate bounds the true kNN radius.
	radius := math.Sqrt(nn[k-1].DistSq)
	if pos, ok = probe(ix, v, geom.BoxAt(p, 2*radius+1e-9), pos[:0]); !ok {
		return nil, false
	}
	return rankVisible(pos, v, p, k), true
}

// rankVisible converts lane positions into the k nearest Neighbors visible
// at v, sorted by distance (ID as a deterministic tie-break): positions
// whose ID is tombstoned are dropped, and every visible pending object
// joins the candidate set (pending objects are few and unindexed, so
// ranking all of them is both cheap and what keeps the result exact
// regardless of the probe geometry).
func rankVisible(pos []int32, v *Version, p geom.Point, k int) []Neighbor {
	nn := make([]Neighbor, 0, len(pos)+len(v.pending))
	for _, j := range pos {
		id := v.table.ID[j]
		if v.deleted.Has(id) {
			continue
		}
		nn = append(nn, Neighbor{ID: id, DistSq: v.table.MinDistSq(int(j), p)})
	}
	for i := range v.pending {
		o := &v.pending[i]
		if v.deleted.Has(o.ID) {
			continue
		}
		nn = append(nn, Neighbor{ID: o.ID, DistSq: o.Box.MinDistSq(p)})
	}
	sort.Slice(nn, func(i, j int) bool {
		if nn[i].DistSq != nn[j].DistSq {
			return nn[i].DistSq < nn[j].DistSq
		}
		return nn[i].ID < nn[j].ID
	})
	if len(nn) > k {
		nn = nn[:k]
	}
	return nn
}
