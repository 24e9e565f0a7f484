// Index introspection: a read-only snapshot of the slice hierarchy with the
// sampled access-heat counters folded in. This is the observation layer under
// the serving stack's /debug/index and /debug/heat endpoints — the data that
// turns "slices_refined flattened at N" into "these tiles, these slices, this
// depth did the work". Inspect mutates nothing (it does not even tick the
// heat sampler), so it can run under a shard's read lock concurrently with
// shared-path queries; the heat counters it reads are atomics.

package core

import "repro/internal/geom"

// SliceReport is one node of the hierarchy snapshot. Ranges are data-array
// positions, exactly as the slice holds them.
type SliceReport struct {
	// Level is the hierarchy level: 0 = x, 1 = y, 2 = z.
	Level int `json:"level"`
	// Lo and Hi delimit the covered data range [Lo,Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Count is Hi-Lo, the number of objects under this slice.
	Count int `json:"count"`
	// Box is the slice's bounding box: the exact MBB once refined,
	// open-ended (±Inf in unsliced dimensions) before.
	Box geom.StringBox `json:"box"`
	// Refined reports whether the slice is final: at or below τ for its
	// level, carrying an exact MBB.
	Refined bool `json:"refined"`
	// Converged reports whether the whole subtree is final — every
	// descendant refined down to the bottom level. A query landing entirely
	// in converged subtrees stays on the shared read path.
	Converged bool `json:"converged"`
	// Heat is this node's own sampled touch counter; SubtreeHeat adds every
	// descendant's. Multiply by the sampling period for an estimate of real
	// touches.
	Heat        int64 `json:"heat"`
	SubtreeHeat int64 `json:"subtree_heat"`
	// ChildSlices counts direct children even when Children is truncated by
	// maxDepth.
	ChildSlices int `json:"child_slices"`
	// Children partition [Lo,Hi) at the next level, sorted by Lo. Omitted
	// beyond the requested depth; the aggregate fields above still cover the
	// full subtree.
	Children []SliceReport `json:"children,omitempty"`
}

// InspectReport is a point-in-time snapshot of the index structure.
type InspectReport struct {
	// Objects counts rows in the indexed data array (tombstoned rows
	// included until compaction); Pending and Deleted count unindexed
	// appends and tombstones.
	Objects int `json:"objects"`
	Pending int `json:"pending"`
	Deleted int `json:"deleted"`
	// Tau is the per-level refinement threshold vector (τ_x, τ_y, τ_z).
	Tau [geom.Dims]int `json:"tau"`
	// Epoch is the crack epoch at snapshot time; two snapshots with equal
	// epochs describe the identical structure.
	Epoch uint64 `json:"epoch"`
	// Converged reports whether a query touching the whole universe would
	// stay on the shared path: no pending inserts and every materialized
	// slice refined down to the bottom level.
	Converged bool `json:"converged"`
	// Slices and SlicesRefined count materialized and refined nodes across
	// all levels — the structural census, not the cumulative Stats
	// counters (which survive restarts and count superseded nodes).
	Slices        int `json:"slices"`
	SlicesRefined int `json:"slices_refined"`
	// HeatSampleEvery is the resolved sampling period (0 when heat tracking
	// is disabled); TotalHeat and MaxHeat aggregate the counters across the
	// hierarchy.
	HeatSampleEvery int   `json:"heat_sample_every"`
	TotalHeat       int64 `json:"total_heat"`
	MaxHeat         int64 `json:"max_heat"`
	// Root holds the level-0 (x) slices.
	Root []SliceReport `json:"root,omitempty"`
}

// Inspect walks the hierarchy and returns its snapshot. maxDepth limits how
// many levels of Children the report materializes: 1 keeps only the level-0
// slices, 2 adds their children, and so on; values <= 0 or >= geom.Dims mean
// the full hierarchy. The walk always descends to the bottom regardless, so
// the per-node aggregates (SubtreeHeat, Converged, ChildSlices) and the
// top-level census are exact even in a truncated report.
//
// Inspect is read-only and does not perturb persistable state: Save before
// and after produce identical bytes. Callers must hold whatever lock guards
// the exclusive path (the shard layer's read lock suffices — the walk is
// structurally a shared-path reader).
func (ix *Index) Inspect(maxDepth int) InspectReport {
	if maxDepth <= 0 || maxDepth > geom.Dims {
		maxDepth = geom.Dims
	}
	v := ix.live.Load()
	rep := InspectReport{
		Objects:         ix.data.Len(),
		Pending:         len(v.pending),
		Deleted:         v.deleted.Len(),
		Tau:             ix.tau,
		Epoch:           ix.epoch.Load(),
		HeatSampleEvery: int(ix.heatEvery),
	}
	if ix.root != nil {
		rep.Root = ix.inspectList(ix.root, maxDepth, &rep)
	}
	rep.Converged = len(v.pending) == 0 && converged(rep.Root)
	return rep
}

// inspectList snapshots one sibling list, accumulating the census into rep.
func (ix *Index) inspectList(l *sliceList, maxDepth int, rep *InspectReport) []SliceReport {
	if len(l.slices) == 0 {
		return nil
	}
	out := make([]SliceReport, len(l.slices))
	for i, s := range l.slices {
		r := SliceReport{
			Level:   s.level,
			Lo:      s.lo,
			Hi:      s.hi,
			Count:   s.size(),
			Box:     geom.StringBox(s.box),
			Refined: s.refined,
			Heat:    s.heat.Load(),
		}
		rep.Slices++
		if s.refined {
			rep.SlicesRefined++
		}
		if r.Heat > rep.MaxHeat {
			rep.MaxHeat = r.Heat
		}
		rep.TotalHeat += r.Heat
		r.SubtreeHeat = r.Heat
		r.Converged = r.Refined && s.level == geom.Dims-1
		if s.children != nil {
			children := ix.inspectList(s.children, maxDepth, rep)
			r.ChildSlices = len(children)
			r.Converged = r.Refined && converged(children)
			for i := range children {
				r.SubtreeHeat += children[i].SubtreeHeat
			}
			if s.level+1 < maxDepth {
				r.Children = children
			}
		}
		out[i] = r
	}
	return out
}

// converged reports whether every report in the list covers a fully refined
// subtree. An empty list is vacuously converged (an empty index is).
func converged(list []SliceReport) bool {
	for i := range list {
		if !list[i].Converged {
			return false
		}
	}
	return true
}

// HeatByLevel buckets the snapshot's slice census and heat per hierarchy
// level — the index-side half of the serving layer's tile×depth heat grid.
// The returned arrays are indexed by level (0 = x .. geom.Dims-1 = z). It
// walks the materialized Children, so the grid is only complete for a
// full-depth snapshot (Inspect with maxDepth <= 0).
func (r *InspectReport) HeatByLevel() (slices, refined [geom.Dims]int, heat [geom.Dims]int64) {
	var walk func([]SliceReport)
	walk = func(list []SliceReport) {
		for i := range list {
			s := &list[i]
			if s.Level >= 0 && s.Level < geom.Dims {
				slices[s.Level]++
				if s.Refined {
					refined[s.Level]++
				}
				heat[s.Level] += s.Heat
			}
			walk(s.Children)
		}
	}
	walk(r.Root)
	return
}
