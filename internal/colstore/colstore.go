// Package colstore is the columnar (structure-of-arrays) storage layout
// behind the QUASII hot path. Objects live as seven contiguous lanes — one
// []float64 per dimension for the lower and upper coordinates plus an
// []int32 identifier lane — instead of an array of 56-byte structs.
//
// The layout exists for the two kernels every query runs:
//
//   - Partition (cracking) streams one 8-byte key lane — the lower-corner
//     lane of the cracked dimension, the index's only representative
//     coordinate — instead of striding through whole structs, so the
//     comparison scan is pure sequential memory traffic and the per-band
//     bounds tracking reads exactly the two lanes it needs.
//   - ScanIntersect (the bottom-level interval filter) tests each lane
//     against the query interval with branch-light compare-and-mask code
//     over contiguous memory the compiler keeps in cache.
//
// The AoS geom.Object API remains the public surface of the index packages;
// a Table is built from objects once at construction and materialized back
// only for persistence.
package colstore

import (
	"math"

	"repro/internal/geom"
)

// KeyMode names the representative coordinate Partition splits on. The
// lower corner is the only one: KeyMode survives solely because the
// benchmark module calls Partition with KeyLower.
type KeyMode uint8

// KeyLower partitions on the row's lower coordinate (the paper's choice).
const KeyLower KeyMode = 0

// Bounds tracks the exact extent of a row band in one dimension: the
// minimum lower coordinate and the maximum upper coordinate of its rows.
type Bounds struct {
	Min, Max float64
}

// NewBounds returns the identity bounds (empty band).
func NewBounds() Bounds { return Bounds{Min: math.Inf(1), Max: math.Inf(-1)} }

// Table stores n spatial objects as structure-of-arrays: per-dimension
// lower/upper coordinate lanes plus an ID lane, all of equal length. The
// lanes are exported for zero-overhead access from the index hot loops;
// mutating their lengths directly would corrupt the table — use the
// methods.
type Table struct {
	Min [geom.Dims][]float64
	Max [geom.Dims][]float64
	ID  []int32

	// scratch backs the branch-free partition kernel's misplaced-row index
	// vectors. Grown on demand to the largest range partitioned so far and
	// reused across cracks; never visible outside Partition.
	scratch []int32
}

// FromObjects ingests objs into a fresh table. The input slice is not
// retained.
func FromObjects(objs []geom.Object) *Table {
	t := &Table{}
	t.Reload(objs)
	return t
}

// Reload overwrites the table's rows with objs, reusing the existing lanes
// when they are large enough.
func (t *Table) Reload(objs []geom.Object) {
	t.resize(len(objs))
	for d := 0; d < geom.Dims; d++ {
		min, max := t.Min[d], t.Max[d]
		for i := range objs {
			min[i] = objs[i].Min[d]
			max[i] = objs[i].Max[d]
		}
	}
	for i := range objs {
		t.ID[i] = objs[i].ID
	}
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.ID) }

// BoxOf reconstructs row i's bounding box.
func (t *Table) BoxOf(i int) geom.Box {
	var b geom.Box
	for d := 0; d < geom.Dims; d++ {
		b.Min[d] = t.Min[d][i]
		b.Max[d] = t.Max[d][i]
	}
	return b
}

// ObjectAt reconstructs row i as a geom.Object.
func (t *Table) ObjectAt(i int) geom.Object {
	return geom.Object{Box: t.BoxOf(i), ID: t.ID[i]}
}

// Objects materializes every row, appending to out (pass nil for a fresh
// slice). Used by persistence and debugging — never on the query path.
func (t *Table) Objects(out []geom.Object) []geom.Object {
	for i := 0; i < t.Len(); i++ {
		out = append(out, t.ObjectAt(i))
	}
	return out
}

// AppendObjects adds rows for objs at the end of the table.
func (t *Table) AppendObjects(objs []geom.Object) {
	for i := range objs {
		for d := 0; d < geom.Dims; d++ {
			t.Min[d] = append(t.Min[d], objs[i].Min[d])
			t.Max[d] = append(t.Max[d], objs[i].Max[d])
		}
		t.ID = append(t.ID, objs[i].ID)
	}
}

// Truncate shrinks the table to its first n rows.
func (t *Table) Truncate(n int) {
	for d := 0; d < geom.Dims; d++ {
		t.Min[d] = t.Min[d][:n]
		t.Max[d] = t.Max[d][:n]
	}
	t.ID = t.ID[:n]
}

// Compact removes every row whose ID is in dead, preserving the order of
// the survivors, and returns the new length.
func (t *Table) Compact(dead map[int32]struct{}) int {
	if len(dead) == 0 {
		return t.Len()
	}
	w := 0
	for i := 0; i < t.Len(); i++ {
		if _, gone := dead[t.ID[i]]; gone {
			continue
		}
		if w != i {
			for d := 0; d < geom.Dims; d++ {
				t.Min[d][w] = t.Min[d][i]
				t.Max[d][w] = t.Max[d][i]
			}
			t.ID[w] = t.ID[i]
		}
		w++
	}
	t.Truncate(w)
	return w
}

// resize sets the table to n rows, reusing each lane whose capacity
// suffices and reallocating the others (lane capacities can diverge after
// AppendObjects: append's size-class rounding differs between float64 and
// int32 lanes).
func (t *Table) resize(n int) {
	for d := 0; d < geom.Dims; d++ {
		t.Min[d] = sized(t.Min[d], n)
		t.Max[d] = sized(t.Max[d], n)
	}
	t.ID = sized(t.ID, n)
}

func sized[T any](lane []T, n int) []T {
	if cap(lane) >= n {
		return lane[:n]
	}
	return make([]T, n)
}

// MBB returns the minimum bounding box of rows [lo, hi). It runs on every
// slice finalization, so the reductions use the halved-chain lane kernels.
func (t *Table) MBB(lo, hi int) geom.Box {
	box := geom.EmptyBox()
	if lo >= hi {
		return box
	}
	for d := 0; d < geom.Dims; d++ {
		box.Min[d] = minLane(t.Min[d][lo:hi])
		box.Max[d] = maxLane(t.Max[d][lo:hi])
	}
	return box
}

// LaneBounds returns the minimum lower and maximum upper coordinate of
// dimension d over rows [lo, hi) — one dimension's stripe of MBB, for
// callers that already know the other dimensions' bounds.
func (t *Table) LaneBounds(d, lo, hi int) (float64, float64) {
	if lo >= hi {
		return math.Inf(1), math.Inf(-1)
	}
	return minLane(t.Min[d][lo:hi]), maxLane(t.Max[d][lo:hi])
}

// MaxExtents returns, per dimension, the maximum extent (Max-Min) over all
// rows. Query-extension techniques need it to bound how far a row's
// representative coordinate can sit from a query it intersects.
func (t *Table) MaxExtents() geom.Point {
	var ext geom.Point
	for d := 0; d < geom.Dims; d++ {
		min, max := t.Min[d], t.Max[d]
		var e float64
		for k := range min {
			if v := max[k] - min[k]; v > e {
				e = v
			}
		}
		ext[d] = e
	}
	return ext
}

// KeyRange returns the minimum and maximum lower coordinate of rows
// [lo, hi) in dimension dim (+Inf, -Inf for an empty range).
func (t *Table) KeyRange(lo, hi, dim int) (min, max float64) {
	return minMaxLane(t.Min[dim][lo:hi])
}

// Partition is the cracking kernel: it reorders rows [lo, hi) so rows whose
// lower coordinate in dim is < pivot precede the rest, returning the split
// position together with the exact bounds of both bands in dim. Bounds are
// tracked in the same pass — each row's final side is known either when a
// scan pointer passes it or when it is swapped. mode must be KeyLower, the
// only KeyMode; the parameter is kept only because the benchmark module
// calls Partition with it.
func (t *Table) Partition(lo, hi, dim int, pivot float64, mode KeyMode) (mid int, left, right Bounds) {
	return t.partitionLower(lo, hi, dim, pivot)
}

// scalarCutoff is the range size below which the branch-free kernel's
// multi-pass structure costs more than its mispredict savings; small ranges
// (the common case once the hierarchy has deepened) use the scalar
// two-pointer kernel instead.
const scalarCutoff = 128

// partitionLower is the one cracking kernel: the key lane IS the Min lane,
// so every pass streams contiguous []float64 memory. Large ranges use a
// branch-free "fancy scan"
// (cracking-literature style): the classic two-pointer loop exits on a
// data-dependent comparison that is a coin flip on unsorted data, so the
// branch predictor misses every other row; instead we (1) count the left
// band branchlessly, (2) collect the misplaced-row indices of both bands
// with unconditional stores and flag-increment cursors, (3) swap exactly
// the misplaced pairs across all seven lanes with no conditionals, and
// (4) reduce the band bounds with unrolled branchless min/max passes over
// the two now-contiguous bands.
func (t *Table) partitionLower(lo, hi, dim int, pivot float64) (mid int, left, right Bounds) {
	key := t.Min[dim]
	up := t.Max[dim]
	if hi-lo <= scalarCutoff {
		return t.partitionLowerScalar(lo, hi, dim, pivot)
	}
	// Pass 1: size the left band. The flag sum is branchless and the range
	// loop over the key segment is bounds-check free.
	cnt := 0
	for _, v := range key[lo:hi] {
		cnt += b2i(v < pivot)
	}
	mid = lo + cnt

	// One-sided outcomes: the whole range is one band; two plain reductions
	// deliver its bounds.
	if mid == hi || mid == lo {
		bd := Bounds{Min: minLane(key[lo:hi]), Max: maxLane(up[lo:hi])}
		if mid == hi {
			return mid, bd, NewBounds()
		}
		return mid, NewBounds(), bd
	}

	if cap(t.scratch) < hi-lo {
		t.scratch = make([]int32, hi-lo)
	}
	posInfBits := math.Float64bits(math.Inf(1))
	negInfBits := math.Float64bits(math.Inf(-1))

	// Pass 2a over [lo, mid): collect the misplaced rows (key belongs
	// right) with an unconditional store + flag-increment cursor, and fold
	// the staying rows into the left band's bounds. The fold is branchless:
	// the comparison flag widens to a bit mask that routes either the
	// coordinate or the identity (±Inf) into the MINSD/MAXSD chain, so the
	// loop carries no data-dependent branch; the movers' contributions are
	// folded later, inside the swap loop, where their values are already in
	// registers.
	a := t.scratch[: mid-lo : mid-lo]
	na := 0
	lmin0, lmin1 := math.Inf(1), math.Inf(1)
	lmax0, lmax1 := math.Inf(-1), math.Inf(-1)
	{
		ks := key[lo:mid]
		us := up[lo:mid][:len(ks)]
		o := 0
		for ; o+1 < len(ks); o += 2 {
			f0 := b2i(ks[o] < pivot) // 1 = stays left
			m0 := -uint64(f0)
			lmin0 = min(lmin0, math.Float64frombits(math.Float64bits(ks[o])&m0|posInfBits&^m0))
			lmax0 = max(lmax0, math.Float64frombits(math.Float64bits(us[o])&m0|negInfBits&^m0))
			a[na] = int32(lo + o)
			na += 1 - f0
			f1 := b2i(ks[o+1] < pivot)
			m1 := -uint64(f1)
			lmin1 = min(lmin1, math.Float64frombits(math.Float64bits(ks[o+1])&m1|posInfBits&^m1))
			lmax1 = max(lmax1, math.Float64frombits(math.Float64bits(us[o+1])&m1|negInfBits&^m1))
			a[na] = int32(lo + o + 1)
			na += 1 - f1
		}
		if o < len(ks) {
			f0 := b2i(ks[o] < pivot)
			m0 := -uint64(f0)
			lmin0 = min(lmin0, math.Float64frombits(math.Float64bits(ks[o])&m0|posInfBits&^m0))
			lmax0 = max(lmax0, math.Float64frombits(math.Float64bits(us[o])&m0|negInfBits&^m0))
			a[na] = int32(lo + o)
			na += 1 - f0
		}
	}
	lmin, lmax := min(lmin0, lmin1), max(lmax0, lmax1)

	// Pass 2b over [mid, hi): collect the rows moving left and fold the
	// staying rows into the right band's bounds, same masking scheme.
	b := t.scratch[mid-lo : hi-lo]
	nb := 0
	rmin0, rmin1 := math.Inf(1), math.Inf(1)
	rmax0, rmax1 := math.Inf(-1), math.Inf(-1)
	{
		ks := key[mid:hi]
		us := up[mid:hi][:len(ks)]
		o := 0
		for ; o+1 < len(ks); o += 2 {
			f0 := b2i(ks[o] < pivot) // 1 = moves left
			m0 := -uint64(f0)
			rmin0 = min(rmin0, math.Float64frombits(math.Float64bits(ks[o])&^m0|posInfBits&m0))
			rmax0 = max(rmax0, math.Float64frombits(math.Float64bits(us[o])&^m0|negInfBits&m0))
			b[nb] = int32(mid + o)
			nb += f0
			f1 := b2i(ks[o+1] < pivot)
			m1 := -uint64(f1)
			rmin1 = min(rmin1, math.Float64frombits(math.Float64bits(ks[o+1])&^m1|posInfBits&m1))
			rmax1 = max(rmax1, math.Float64frombits(math.Float64bits(us[o+1])&^m1|negInfBits&m1))
			b[nb] = int32(mid + o + 1)
			nb += f1
		}
		if o < len(ks) {
			f0 := b2i(ks[o] < pivot)
			m0 := -uint64(f0)
			rmin0 = min(rmin0, math.Float64frombits(math.Float64bits(ks[o])&^m0|posInfBits&m0))
			rmax0 = max(rmax0, math.Float64frombits(math.Float64bits(us[o])&^m0|negInfBits&m0))
			b[nb] = int32(mid + o)
			nb += f0
		}
	}
	rmin, rmax := min(rmin0, rmin1), max(rmax0, rmax1)

	// Pass 3: swap the misplaced pairs across all seven lanes,
	// unconditionally (the counts on both sides are equal, and any pairing
	// works — both index sequences are monotone, so every lane's cache
	// lines are touched in order). The movers' values are already in
	// registers for the swap, so their contributions to the destination
	// band's bounds fold in for free.
	d1, d2 := otherDims(dim)
	min1, max1 := t.Min[d1], t.Max[d1]
	min2, max2 := t.Min[d2], t.Max[d2]
	ids := t.ID
	for p := 0; p < na; p++ {
		x, y := a[p], b[p]
		kx, ky := key[x], key[y]
		ux, uy := up[x], up[y]
		rmin = min(rmin, kx)
		rmax = max(rmax, ux)
		lmin = min(lmin, ky)
		lmax = max(lmax, uy)
		key[x], key[y] = ky, kx
		up[x], up[y] = uy, ux
		min1[x], min1[y] = min1[y], min1[x]
		max1[x], max1[y] = max1[y], max1[x]
		min2[x], min2[y] = min2[y], min2[x]
		max2[x], max2[y] = max2[y], max2[x]
		ids[x], ids[y] = ids[y], ids[x]
	}
	return mid, Bounds{Min: lmin, Max: lmax}, Bounds{Min: rmin, Max: rmax}
}

// minLane reduces the minimum of a lane segment with a halved MINSD chain.
func minLane(lane []float64) float64 {
	mn0, mn1 := math.Inf(1), math.Inf(1)
	k := 0
	for ; k+1 < len(lane); k += 2 {
		mn0 = min(mn0, lane[k])
		mn1 = min(mn1, lane[k+1])
	}
	if k < len(lane) {
		mn0 = min(mn0, lane[k])
	}
	return min(mn0, mn1)
}

// maxLane reduces the maximum of a lane segment with a halved MAXSD chain.
func maxLane(lane []float64) float64 {
	mx0, mx1 := math.Inf(-1), math.Inf(-1)
	k := 0
	for ; k+1 < len(lane); k += 2 {
		mx0 = max(mx0, lane[k])
		mx1 = max(mx1, lane[k+1])
	}
	if k < len(lane) {
		mx0 = max(mx0, lane[k])
	}
	return max(mx0, mx1)
}

// partitionLowerScalar is the two-pointer kernel used for small ranges,
// with all seven lanes hoisted into locals so swaps run inline and the
// bounds tracking lowered to branchless MINSD/MAXSD via the builtin
// min/max.
func (t *Table) partitionLowerScalar(lo, hi, dim int, pivot float64) (mid int, left, right Bounds) {
	d1, d2 := otherDims(dim)
	key := t.Min[dim]
	up := t.Max[dim]
	min1, max1 := t.Min[d1], t.Max[d1]
	min2, max2 := t.Min[d2], t.Max[d2]
	ids := t.ID
	left, right = NewBounds(), NewBounds()
	i, j := lo, hi-1
	for i <= j {
		for i <= j && key[i] < pivot {
			left.Min = min(left.Min, key[i])
			left.Max = max(left.Max, up[i])
			i++
		}
		for i <= j && key[j] >= pivot {
			right.Min = min(right.Min, key[j])
			right.Max = max(right.Max, up[j])
			j--
		}
		if i < j {
			key[i], key[j] = key[j], key[i]
			up[i], up[j] = up[j], up[i]
			min1[i], min1[j] = min1[j], min1[i]
			max1[i], max1[j] = max1[j], max1[i]
			min2[i], min2[j] = min2[j], min2[i]
			max2[i], max2[j] = max2[j], max2[i]
			ids[i], ids[j] = ids[j], ids[i]
			left.Min = min(left.Min, key[i])
			left.Max = max(left.Max, up[i])
			right.Min = min(right.Min, key[j])
			right.Max = max(right.Max, up[j])
			i++
			j--
		}
	}
	return i, left, right
}

// minMaxLane reduces the minimum and maximum of one lane segment in a
// single traversal, two accumulator pairs per bound to halve the chains.
func minMaxLane(lane []float64) (float64, float64) {
	mn0, mn1 := math.Inf(1), math.Inf(1)
	mx0, mx1 := math.Inf(-1), math.Inf(-1)
	k := 0
	for ; k+1 < len(lane); k += 2 {
		mn0 = min(mn0, lane[k])
		mx0 = max(mx0, lane[k])
		mn1 = min(mn1, lane[k+1])
		mx1 = max(mx1, lane[k+1])
	}
	if k < len(lane) {
		mn0 = min(mn0, lane[k])
		mx0 = max(mx0, lane[k])
	}
	return min(mn0, mn1), max(mx0, mx1)
}

// b2i converts a comparison result to 0/1 without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// otherDims returns the two dimensions complementing dim (compile-time
// constant fan-out for Dims == 3).
func otherDims(dim int) (int, int) {
	switch dim {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	default:
		return 0, 1
	}
}

// ScanIntersect appends the positions of every row in [lo, hi) whose box
// intersects q. The test is branch-light: all six interval comparisons are
// evaluated unconditionally per row and combined with bitwise AND, so the
// loop runs over seven contiguous lanes with a single conditional append —
// no short-circuit branches for the predictor to miss.
func (t *Table) ScanIntersect(lo, hi int, q geom.Box, out []int32) []int32 {
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
	qlo0, qhi0 := q.Min[0], q.Max[0]
	qlo1, qhi1 := q.Min[1], q.Max[1]
	qlo2, qhi2 := q.Min[2], q.Max[2]
	for k := range min0 {
		ok := b2i(min0[k] <= qhi0) & b2i(max0[k] >= qlo0) &
			b2i(min1[k] <= qhi1) & b2i(max1[k] >= qlo1) &
			b2i(min2[k] <= qhi2) & b2i(max2[k] >= qlo2)
		if ok != 0 {
			out = append(out, int32(lo+k))
		}
	}
	return out
}

// CountIntersect returns the number of rows in [lo, hi) whose box
// intersects q — ScanIntersect without the output vector, for count-only
// callers (shared-path Count) that want to stay allocation-free. The flag
// sum is fully branchless.
func (t *Table) CountIntersect(lo, hi int, q geom.Box) int {
	if lo >= hi {
		return 0
	}
	min0 := t.Min[0][lo:hi]
	n := len(min0)
	max0 := t.Max[0][lo:hi][:n]
	min1 := t.Min[1][lo:hi][:n]
	max1 := t.Max[1][lo:hi][:n]
	min2 := t.Min[2][lo:hi][:n]
	max2 := t.Max[2][lo:hi][:n]
	qlo0, qhi0 := q.Min[0], q.Max[0]
	qlo1, qhi1 := q.Min[1], q.Max[1]
	qlo2, qhi2 := q.Min[2], q.Max[2]
	cnt := 0
	for k := range min0 {
		cnt += b2i(min0[k] <= qhi0) & b2i(max0[k] >= qlo0) &
			b2i(min1[k] <= qhi1) & b2i(max1[k] >= qlo1) &
			b2i(min2[k] <= qhi2) & b2i(max2[k] >= qlo2)
	}
	return cnt
}

// MinDistSq returns the squared minimum distance between point p and row
// i's box (0 when p lies inside). Used by kNN candidate ranking.
func (t *Table) MinDistSq(i int, p geom.Point) float64 {
	var sum float64
	for d := 0; d < geom.Dims; d++ {
		switch {
		case p[d] < t.Min[d][i]:
			diff := t.Min[d][i] - p[d]
			sum += diff * diff
		case p[d] > t.Max[d][i]:
			diff := p[d] - t.Max[d][i]
			sum += diff * diff
		}
	}
	return sum
}
