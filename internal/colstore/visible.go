package colstore

import "repro/internal/geom"

// The delta-merge kernel: the MVCC read path layers an immutable tombstone
// view over the lanes, so the bottom-level scan needs a variant that applies
// the tombstone check inside the scan loop. Keeping the check fused (rather
// than post-filtering a materialized position vector) preserves the single
// sequential pass over the seven lanes and keeps the converged read path at
// zero allocations: the only state is the caller's output slice and the
// shared (read-only) tombstone view.

// deadSet is what the visible scan kernel asks of a tombstone set.
type deadSet interface {
	Has(id int32) bool
}

// mapSet adapts a map-keyed tombstone set to the kernel.
type mapSet map[int32]struct{}

func (m mapSet) Has(id int32) bool {
	_, ok := m[id]
	return ok
}

// ScanVisible appends the IDs — not positions — of every row in [lo, hi)
// whose box intersects q and whose ID is not tombstoned in dead. The six
// interval comparisons stay branch-free; the tombstone lookup runs only for
// rows that already passed the geometric test, so a converged read with no
// tombstones pays nothing beyond ScanIntersect plus the ID lane load.
func (t *Table) ScanVisible(lo, hi int, q geom.Box, dead Tombstones, out []int32) []int32 {
	if dead.Len() == 0 {
		return t.scanIDs(lo, hi, q, out)
	}
	return scanVisible(t, lo, hi, q, dead, out)
}

// ScanIntersectVisible is ScanVisible over a map-keyed tombstone set (dead
// may be nil), running the same kernel. The index never calls it; it keeps
// the benchmark's colstore.scan_visible_ns_per_row probe compiling.
func (t *Table) ScanIntersectVisible(lo, hi int, q geom.Box, dead map[int32]struct{}, out []int32) []int32 {
	if len(dead) == 0 {
		return t.scanIDs(lo, hi, q, out)
	}
	return scanVisible(t, lo, hi, q, mapSet(dead), out)
}

// scanIDs is the visible scan with no tombstones: ScanIntersect appending
// IDs instead of positions.
func (t *Table) scanIDs(lo, hi int, q geom.Box, out []int32) []int32 {
	if lo >= hi {
		return out
	}
	min0 := t.Min[0][lo:hi]
	n := len(min0)
	max0 := t.Max[0][lo:hi][:n]
	min1 := t.Min[1][lo:hi][:n]
	max1 := t.Max[1][lo:hi][:n]
	min2 := t.Min[2][lo:hi][:n]
	max2 := t.Max[2][lo:hi][:n]
	ids := t.ID[lo:hi][:n]
	qlo0, qhi0 := q.Min[0], q.Max[0]
	qlo1, qhi1 := q.Min[1], q.Max[1]
	qlo2, qhi2 := q.Min[2], q.Max[2]
	for k := range min0 {
		ok := b2i(min0[k] <= qhi0) & b2i(max0[k] >= qlo0) &
			b2i(min1[k] <= qhi1) & b2i(max1[k] >= qlo1) &
			b2i(min2[k] <= qhi2) & b2i(max2[k] >= qlo2)
		if ok != 0 {
			out = append(out, ids[k])
		}
	}
	return out
}

// scanVisible is the visible scan kernel over any tombstone set.
func scanVisible[S deadSet](t *Table, lo, hi int, q geom.Box, dead S, out []int32) []int32 {
	if lo >= hi {
		return out
	}
	min0 := t.Min[0][lo:hi]
	n := len(min0)
	max0 := t.Max[0][lo:hi][:n]
	min1 := t.Min[1][lo:hi][:n]
	max1 := t.Max[1][lo:hi][:n]
	min2 := t.Min[2][lo:hi][:n]
	max2 := t.Max[2][lo:hi][:n]
	ids := t.ID[lo:hi][:n]
	qlo0, qhi0 := q.Min[0], q.Max[0]
	qlo1, qhi1 := q.Min[1], q.Max[1]
	qlo2, qhi2 := q.Min[2], q.Max[2]
	for k := range min0 {
		ok := b2i(min0[k] <= qhi0) & b2i(max0[k] >= qlo0) &
			b2i(min1[k] <= qhi1) & b2i(max1[k] >= qlo1) &
			b2i(min2[k] <= qhi2) & b2i(max2[k] >= qlo2)
		if ok != 0 && !dead.Has(ids[k]) {
			out = append(out, ids[k])
		}
	}
	return out
}

// Clone returns a deep copy of the table's rows. The partition scratch is
// not carried over. core.Flush clones before compacting whenever a pinned
// version still references the current lanes, so the pinned reader's view
// stays immutable while the live index rebuilds in place.
func (t *Table) Clone() *Table {
	n := t.Len()
	c := &Table{}
	for d := 0; d < geom.Dims; d++ {
		c.Min[d] = append(make([]float64, 0, n), t.Min[d]...)
		c.Max[d] = append(make([]float64, 0, n), t.Max[d]...)
	}
	c.ID = append(make([]int32, 0, n), t.ID...)
	return c
}
