// Extensions beyond the paper's core algorithm, each motivated by its text:
//
//   - the centre cut: the paper builds on database cracking, whose
//     sequential-workload pathology (every query re-cracking one shrinking
//     remainder) stochastic cracking fixes (Halim et al., VLDB 2012). The cut
//     planner (planCuts, core.go) takes its data-driven variant: a band an
//     earlier query left, over 2·τ₀ rows, is halved at its key-range centre
//     before the query's own cuts. It is always on; the uncracked root is
//     exempt, so query #1 is the paper's.
//   - Complete: finish refinement eagerly (e.g. in idle time), turning the
//     adaptive index into its fully converged form — the executor (split,
//     core.go) run on every slice with a query covering every coordinate,
//     not a second recursion.
//   - Append/Delete/Flush: accept updates after construction; the paper
//     assumes a static setting (Sec. 2), so arrivals are buffered, deletions
//     tombstoned, and both merged into the hierarchy on demand, moving only
//     the rows that must change place (colstore.Table.Merge). Only an
//     explicit Flush folds them in: every query, KNN included, reads pending
//     inserts and tombstones from the version it pinned.

package core

import (
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
)

// Complete finishes all outstanding refinement: every slice on every level
// is split down to its τ threshold and every refined slice receives its
// exact bounding box, exactly as if enough queries had touched the whole
// universe. Afterwards queries perform no further cracking. Typical use is
// converting the adaptive index into its converged form during idle time.
func (ix *Index) Complete() {
	if ix.root == nil {
		return
	}
	ix.completeList(ix.root, 0)
}

func (ix *Index) completeList(list *sliceList, dim int) {
	// A query covering every coordinate: split bisects every fragment.
	var out []*slice
	for _, s := range list.slices {
		out = ix.split(s, math.Inf(-1), math.Inf(1), s.box.Min[dim], math.Nextafter(s.box.Max[dim], math.Inf(1)), false, out)
	}
	list.slices = out
	list.maxExt = 0
	for _, s := range out {
		list.noteExtent(s, dim)
		if dim < geom.Dims-1 {
			if s.children == nil {
				ix.createDefaultChild(s)
			}
			ix.completeList(s.children, dim+1)
		}
	}
}

// Append registers new objects with the index. The paper assumes all data is
// available up front (static setting); arrivals are therefore buffered and
// scanned linearly by every query until Flush folds them into the indexed
// lanes. IDs need not be unique, but results are reported by ID.
//
// Append publishes a new version (see version.go) and is safe under the
// shard's shared lock, concurrently with readers and other writers.
func (ix *Index) Append(objs ...geom.Object) {
	ix.AppendVersioned(objs...)
}

// Pending returns the number of appended objects not yet folded into the
// indexed lanes (tombstoned-while-pending entries included until Flush).
func (ix *Index) Pending() int { return len(ix.live.Load().pending) }

// Delete removes the object with the given ID, using hint (typically the
// object's own box) to locate it. Deletion is logical — a tombstone filters
// the object out of all results immediately — and physical on the next
// Flush, which compacts the lanes and keeps the slice hierarchy. It reports
// whether a visible object was found; an ID already tombstoned reads as
// absent. IDs are assumed unique for deletion; with duplicates every object
// carrying the ID disappears from results.
//
// Delete may refine the index around hint, so it requires the exclusive
// lock; DeleteShared is the escalation-free variant for converged regions.
func (ix *Index) Delete(id int32, hint geom.Box) bool {
	return ix.DeleteBudgeted(id, hint, -1)
}

// DeleteBudgeted is Delete locating the object with at most budget crack
// passes (see QueryBudgeted); negative means unlimited.
func (ix *Index) DeleteBudgeted(id int32, hint geom.Box, budget int) bool {
	ix.remCracks = max(budget, -1)
	_, found, _ := ix.deleteSeq(id, hint, (*Index).positionsRefining)
	ix.remCracks = -1
	return found
}

// Deleted returns the number of tombstoned objects awaiting compaction.
func (ix *Index) Deleted() int { return ix.live.Load().deleted.Len() }

// Flush folds all appended objects into the indexed lanes and compacts away
// tombstoned ones, keeping the slice hierarchy — the merge of updates into
// a cracked column of Idreos, Kersten & Manegold ("Updating a Cracked
// Database", SIGMOD 2007) applied to QUASII's levels. Every pending object
// joins the leaf its lower corner routes to (see routeLeaf), the lanes are
// regrouped in place by colstore's Merge, which writes only the rows that
// must change place (each leaf fills its holes from its own tail, then
// relocates only the rows its shift pushes out of its old range),
// and every slice's range is rewritten from the leaves' new ends. The order
// of the rows inside a leaf is not kept; nothing reads it. Slices left empty
// are dropped, and a childless slice that now exceeds its level's τ loses
// its refined flag, so the next query touching it cracks it again. No
// refined subtree is discarded: queries after a Flush walk the hierarchy
// earlier queries built. A leaf shifts by the arrivals minus the tombstones
// routed before it: a batch balanced inside each leaf moves about its own
// size, a spread-out one a share of the rows, and one that grows the index
// by more than a leaf's size about all of them.
//
// Flush requires the exclusive lock. If any version in the chain is pinned
// (a checkpoint mid-write), the lanes and the slice tree are copied first so
// the pinned view keeps its frozen generation; otherwise the merge is in
// place.
func (ix *Index) Flush() {
	cur := ix.live.Load()
	if len(cur.pending) == 0 && cur.deleted.Len() == 0 {
		return
	}
	ix.epoch.Add(1)
	if ix.chainPinned() {
		// A pinned version references the current lanes and tree; the merge
		// must not touch them. The copies become the live generation, the
		// pinned version keeps the superseded one (its root and tau fields
		// were captured at publish and stay consistent with it).
		ix.data = ix.data.Clone()
		ix.root = ix.cloneList(ix.root)
	}
	ix.merge(cur)
	ix.verMu.Lock()
	ix.publishLocked(&Version{
		seq:     ix.live.Load().seq + 1,
		maxExt:  cur.maxExt,
		dataMBB: cur.dataMBB,
		table:   ix.data,
		root:    ix.root,
		tau:     ix.tau,
	})
	ix.verMu.Unlock()
}

// flushScratch is merge's per-leaf working memory, kept across flushes so a
// steady update cadence allocates only for its arrivals. leaves is cleared
// after every merge, so it keeps no replaced slice alive.
type flushScratch struct {
	leaves []*slice
	ends   []int // each leaf's end row; Merge rewrites it to the new ends
	at     []int // each leaf's arrival count, then where its arrivals go
}

// merge folds cur's deltas into the live lanes and hierarchy (Flush's body).
func (ix *Index) merge(cur *Version) {
	sc := &ix.flush
	sc.leaves = collectLeaves(ix.root, sc.leaves[:0])
	leaves := sc.leaves
	segs := max(len(leaves), 1) // an empty hierarchy is one empty segment
	sc.ends, sc.at = resized(sc.ends, segs), resized(sc.at, segs)
	ends, at := sc.ends, sc.at
	ends[0] = 0
	for k, s := range leaves {
		ends[k] = s.hi
	}
	clear(at)

	// Route the live pending objects, skipping those tombstoned while still
	// pending, to the ordinal of the leaf each joins (found among the leaves
	// ending where it ends: empty leaves share an end), then order them by
	// it with one counting pass, keeping their order within a leaf.
	seg := make([]int, len(cur.pending))
	for i := range cur.pending {
		o := &cur.pending[i]
		if cur.deleted.Has(o.ID) {
			seg[i] = -1
			continue
		}
		k := 0
		if len(leaves) > 0 {
			leaf := ix.routeLeaf(o)
			k = sort.SearchInts(ends, leaf.hi)
			for leaves[k] != leaf {
				k++
			}
		}
		seg[i] = k
		at[k]++
	}
	n := 0
	for k, c := range at {
		at[k], n = n, n+c
	}
	add := make([]geom.Object, n)
	for i, k := range seg {
		if k >= 0 {
			add[at[k]] = cur.pending[i]
			at[k]++
		}
	}
	// at[k] is now the end of leaf k's arrivals in add.
	seg, i := seg[:n], 0
	for k, end := range at {
		for ; i < end; i++ {
			seg[i] = k
		}
	}

	ix.data.Merge(ends, cur.deleted, add, seg)
	ix.computeTaus()
	ix.regroup(ix.root, 0, ends, 0)
	clear(leaves)
	if len(ix.root.slices) == 0 && ix.data.Len() > 0 {
		ix.newRoot(cur.dataMBB) // Append grew it over every pending object
	}
}

// resized returns s with length n, reusing its array when it is big enough
// and growing it as append would otherwise, so a leaf count that creeps up
// between flushes does not reallocate every time.
func resized(s []int, n int) []int {
	return slices.Grow(s[:0], n)[:n]
}

// collectLeaves appends l's childless slices to out in row order. A slice
// whose child list is empty (an empty slice restored from a snapshot) is
// made childless, so every leaf collected here owns one segment.
func collectLeaves(l *sliceList, out []*slice) []*slice {
	for _, s := range l.slices {
		if s.children != nil && len(s.children.slices) == 0 {
			s.children = nil
		}
		if s.children == nil {
			out = append(out, s)
		} else {
			out = collectLeaves(s.children, out)
		}
	}
	return out
}

// routeLeaf descends the hierarchy to the leaf a pending object joins: at
// each level the last sibling whose box starts at or below the object's
// lower corner, or the first sibling when none does. The key then lies
// below the next sibling's Min, as every key of a cracked band does, so a
// later crack of the slice still yields fragments whose Min sorts before
// that sibling's — the sibling search's precondition. Every box on the path
// grows to cover the object and each list's maximum extent follows. The
// root list must not be empty.
func (ix *Index) routeLeaf(o *geom.Object) *slice {
	l := ix.root
	for {
		dim := l.slices[0].level
		k := sort.Search(len(l.slices), func(i int) bool { return l.slices[i].box.Min[dim] > o.Min[dim] })
		s := l.slices[max(k-1, 0)]
		s.box = s.box.Extend(o.Box)
		l.noteExtent(s, dim)
		if s.children == nil {
			return s
		}
		l = s.children
	}
}

// regroup rewrites the ranges of l's slices, which start at row lo, from
// the merged leaf ends: the leaves of l's subtree own ends[next:] in row
// order. Slices left empty are dropped, and a childless slice over its
// level's τ is no longer refined. It returns the next unused leaf ordinal.
func (ix *Index) regroup(l *sliceList, lo int, ends []int, next int) int {
	kept := l.slices[:0]
	for _, s := range l.slices {
		s.lo = lo
		if s.children == nil {
			s.hi = ends[next]
			s.refined = s.refined && s.size() <= ix.tau[s.level]
			next++
		} else {
			next = ix.regroup(s.children, lo, ends, next)
			s.hi = ends[next-1]
		}
		if s.hi > s.lo {
			kept = append(kept, s)
			lo = s.hi
		}
	}
	clear(l.slices[len(kept):])
	l.slices = kept
	return next
}

// cloneList deep-copies a sibling list and every slice below it, heat
// included, so a merge can reshape the copy while a pinned version keeps
// walking the original.
func (ix *Index) cloneList(l *sliceList) *sliceList {
	if l == nil {
		return nil
	}
	out := &sliceList{maxExt: l.maxExt, slices: make([]*slice, len(l.slices))}
	for i, s := range l.slices {
		c := ix.newSlice(s.level, s.lo, s.hi, s.box)
		c.refined = s.refined
		c.heat.Store(s.heat.Load())
		c.children = ix.cloneList(s.children)
		out.slices[i] = c
	}
	return out
}
