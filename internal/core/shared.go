// The shared read path. QUASII converges toward R-tree-like behaviour
// precisely because, after enough queries, most slices are final and never
// cracked again — so the steady state the paper celebrates is a read-mostly
// structure that should be queried under shared access, not behind an
// exclusive lock. The entry points below pin a version (an atomic load of
// the MVCC head — see version.go) and walk that version's slice hierarchy
// without mutating anything: no finalization, no child creation, no
// cracking, no plain-counter stats. There is one such walk (walkRefined);
// range queries (on the live or a pinned version) and the KNN and delete
// position probes differ only in the leaf action they hand it, and the
// closure costs nothing measurable — the converged path stays at zero
// allocations. A query whose touched region is fully refined is
// answered in place against the pinned version's view — lanes plus visible
// deltas — regardless of how many appends and deletes race with it. Only a
// slice that still needs structural work makes the walk bail out so the
// caller can retry on the exclusive path (QueryBudgeted / KNNBudgeted /
// DeleteBudgeted), which alone mutates the hierarchy and bumps the crack
// epoch. KNN and delete are written once over a position probe (knn.go):
// this file's positionsShared is the read-only one, queryPositions the
// refining one — neither flavour ever flushes.
//
// # Safety contract
//
// Any number of shared-path calls may run concurrently with each other and
// with version-publishing writers (Append, Delete via DeleteShared). They
// must not run concurrently with the exclusive path — cracking queries and
// Flush — which the sharded engine guarantees with a per-shard RWMutex.
// The crack epoch is the belt to those suspenders: every walk records the
// epoch first and validates it after, so even a misuse race (a structural
// writer sneaking in between the caller's decision and the walk) is
// detected and turned into a fallback instead of a wrong answer. Data
// changes no longer move the epoch, so a write burst cannot evict readers.

package core

import (
	"math"

	"repro/internal/geom"
)

// Epoch returns the crack epoch: a monotonic counter that moves on every
// structural mutation and stands still exactly when the hierarchy does.
// Two equal Epoch reads bracketing a shared walk prove the walk saw a
// frozen structure. Data changes (Append/Delete) do not move it — they
// publish versions; see DataVersion. Safe to call concurrently.
func (ix *Index) Epoch() uint64 { return ix.epoch.Load() }

// QueryShared answers q on the shared read path: it pins the live version
// and performs a read-only walk over the already-refined slice hierarchy,
// merging the version's deltas (pending inserts, tombstones) in stream. On
// success it appends the matching IDs to out (exactly what Query would
// return at the pinned version) and reports true. It reports false — with
// out unchanged — only when a touched slice still needs refinement or the
// structure moved mid-walk; concurrent appends and deletes never cause a
// bail. On a converged index the call is allocation-free when out has
// capacity.
func (ix *Index) QueryShared(q geom.Box, out []int32) ([]int32, bool) {
	return ix.queryAtVersion(ix.live.Load(), q, out)
}

// queryAtVersion answers q against v's view: the live version for
// QueryShared, an arbitrary pinned one for the visibility harness auditing
// that a pinned read sees exactly the writes published at or before its
// pin. The walk runs over the generation v captured — the live lanes and
// hierarchy until a Flush supersedes them, the frozen ones afterwards.
// Same locking contract as QueryShared; the walk is bracketed by the
// crack-epoch validation of the safety contract above.
func (ix *Index) queryAtVersion(v *Version, q geom.Box, out []int32) ([]int32, bool) {
	if v.table.Len() > 0 && !q.IsEmpty() {
		start := len(out)
		e := ix.epoch.Load()
		ok := ix.walkRefined(q, v.root, 0, ix.sampleHeat(), func(lo, hi int) {
			out = v.table.ScanVisible(lo, hi, q, v.deleted, out)
		})
		if !ok || ix.epoch.Load() != e {
			return out[:start], false
		}
	}
	v.eachPending(q, func(id int32) { out = append(out, id) })
	ix.sharedQueries.Add(1)
	return out, true
}

// positionsShared collects the raw lane positions of v's rows intersecting
// q — no tombstone filtering: the KNN ranking and the shared delete locator
// post-filter by ID — and never records heat. It reports false when the
// walk needs exclusive work.
func (ix *Index) positionsShared(v *Version, q geom.Box, pos []int32) ([]int32, bool) {
	ok := ix.walkRefined(q, v.root, 0, false, func(lo, hi int) {
		pos = v.table.ScanIntersect(lo, hi, q, pos)
	})
	return pos, ok
}

// walkRefined is the read-only mirror of queryList — Algorithm 1 with every
// mutation taken out. Any slice the exclusive path would have to touch —
// finalize, give a child, or crack — aborts the walk instead; what happens
// at a bottom-level slice is the caller's leaf action (scan visible rows or
// collect positions), so every shared entry point shares this one descent.
// heat is threaded as a parameter (not an Index field) because any number
// of shared walks run concurrently; the only mutation a sampled walk
// performs is the atomic touch counter, which is still "read-only"
// structurally.
func (ix *Index) walkRefined(q geom.Box, list *sliceList, dim int, heat bool, leaf func(lo, hi int)) bool {
	fastPath := !math.IsInf(list.maxExt, 1)
	var i int
	if fastPath {
		i = list.lowerBound(q.Min[dim]-list.maxExt, dim)
	}
	for ; i < len(list.slices); i++ {
		s := list.slices[i]
		if fastPath && s.box.Min[dim] > q.Max[dim] {
			break
		}
		if !s.box.Intersects(q) {
			continue
		}
		if !s.refined {
			return false // needs finalization or cracking: exclusive work
		}
		s.touchHeat(heat)
		if dim == geom.Dims-1 {
			leaf(s.lo, s.hi)
			continue
		}
		if s.children == nil {
			return false // lazy child creation is exclusive work
		}
		if !ix.walkRefined(q, s.children, dim+1, heat, leaf) {
			return false
		}
	}
	return true
}

// KNNShared answers a k-nearest-neighbor query on the shared read path
// against the pinned version's view (see knn), so a write burst never
// evicts KNN readers. It reports false only when the probed region is not
// yet converged or the structure moved under the walk.
func (ix *Index) KNNShared(p geom.Point, k int) ([]Neighbor, bool) {
	e := ix.epoch.Load()
	nn, ok := ix.knn(ix.live.Load(), p, k, (*Index).positionsShared)
	if !ok || ix.epoch.Load() != e {
		return nil, false
	}
	ix.sharedQueries.Add(1)
	return nn, true
}
