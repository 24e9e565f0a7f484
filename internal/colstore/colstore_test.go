package colstore

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

func randomObjects(n int, seed int64) []geom.Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]geom.Object, n)
	for i := range objs {
		var min, max geom.Point
		for d := 0; d < geom.Dims; d++ {
			min[d] = rng.Float64() * 1000
			max[d] = min[d] + rng.Float64()*100
		}
		objs[i] = geom.Object{Box: geom.Box{Min: min, Max: max}, ID: int32(i)}
	}
	return objs
}

func TestRoundTrip(t *testing.T) {
	objs := randomObjects(500, 1)
	tab := FromObjects(objs)
	if tab.Len() != len(objs) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(objs))
	}
	back := tab.Objects(nil)
	for i := range objs {
		if back[i] != objs[i] {
			t.Fatalf("row %d: %+v != %+v", i, back[i], objs[i])
		}
		if tab.ObjectAt(i) != objs[i] {
			t.Fatalf("ObjectAt(%d) mismatch", i)
		}
	}
}

func TestMBBAndMaxExtentsMatchAoS(t *testing.T) {
	objs := randomObjects(300, 2)
	tab := FromObjects(objs)
	if got, want := tab.MBB(0, len(objs)), geom.MBB(objs); got != want {
		t.Fatalf("MBB = %v, want %v", got, want)
	}
	if got, want := tab.MBB(50, 120), geom.MBB(objs[50:120]); got != want {
		t.Fatalf("sub MBB = %v, want %v", got, want)
	}
	if got, want := tab.MaxExtents(), geom.MaxExtents(objs); got != want {
		t.Fatalf("MaxExtents = %v, want %v", got, want)
	}
	empty := FromObjects(nil)
	if !empty.MBB(0, 0).IsEmpty() {
		t.Fatal("empty MBB should be empty")
	}
}

func TestScanIntersectMatchesAoS(t *testing.T) {
	objs := dataset.Uniform(2000, 3)
	tab := FromObjects(objs)
	rng := rand.New(rand.NewSource(4))
	for qi := 0; qi < 50; qi++ {
		var a, b geom.Point
		for d := 0; d < geom.Dims; d++ {
			a[d] = rng.Float64() * dataset.UniverseSide
			b[d] = a[d] + rng.Float64()*dataset.UniverseSide/4
		}
		q := geom.Box{Min: a, Max: b}
		lo := rng.Intn(len(objs))
		hi := lo + rng.Intn(len(objs)-lo)
		got := tab.ScanIntersect(lo, hi, q, nil)
		var want []int32
		for j := lo; j < hi; j++ {
			if objs[j].Intersects(q) {
				want = append(want, int32(j))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("query %d [%d,%d): got %d hits, want %d", qi, lo, hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d hit %d: %d != %d", qi, i, got[i], want[i])
			}
		}
	}
}

// TestPartitionAllModes checks the one partition kernel — the lower-corner
// kernel, branch-free above scalarCutoff and scalar below — in every
// dimension at range sizes on both sides of the cutoff: every row lands on
// its side of the pivot, both bands' bounds are exact, and the rows stay a
// permutation with their lanes in step.
func TestPartitionAllModes(t *testing.T) {
	for dim := 0; dim < geom.Dims; dim++ {
		for _, n := range []int{1, scalarCutoff / 2, scalarCutoff, scalarCutoff + 1, 1000} {
			objs := randomObjects(n, int64(100*dim+n))
			tab := FromObjects(objs)
			pivot := 500.0
			mid, left, right := tab.Partition(0, n, dim, pivot, KeyLower)

			wantLeft, wantRight := NewBounds(), NewBounds()
			for i := 0; i < n; i++ {
				key, b := tab.Min[dim][i], &wantRight
				if i < mid {
					b = &wantLeft
				}
				if (key < pivot) != (i < mid) {
					t.Fatalf("dim %d n %d: row %d key %g on the wrong side of mid %d", dim, n, i, key, mid)
				}
				b.Min = min(b.Min, key)
				b.Max = max(b.Max, tab.Max[dim][i])
			}
			if left != wantLeft || right != wantRight {
				t.Fatalf("dim %d n %d: bounds (%v, %v), want (%v, %v)", dim, n, left, right, wantLeft, wantRight)
			}
			seen := make(map[int32]bool, n)
			for i := 0; i < n; i++ {
				seen[tab.ID[i]] = true
				if tab.ObjectAt(i).Box != objs[tab.ID[i]].Box {
					t.Fatalf("dim %d n %d: row %d lanes desynced from ID", dim, n, i)
				}
			}
			if len(seen) != n {
				t.Fatalf("dim %d n %d: %d distinct IDs after partition, want %d", dim, n, len(seen), n)
			}
		}
	}
}

func TestPartitionSubRange(t *testing.T) {
	objs := randomObjects(400, 9)
	tab := FromObjects(objs)
	before := tab.Objects(nil)
	lo, hi := 100, 300
	mid, _, _ := tab.Partition(lo, hi, 0, 500, KeyLower)
	if mid < lo || mid > hi {
		t.Fatalf("mid %d outside [%d,%d]", mid, lo, hi)
	}
	// Rows outside [lo,hi) are untouched.
	for i := 0; i < lo; i++ {
		if tab.ObjectAt(i) != before[i] {
			t.Fatalf("row %d before range was moved", i)
		}
	}
	for i := hi; i < tab.Len(); i++ {
		if tab.ObjectAt(i) != before[i] {
			t.Fatalf("row %d after range was moved", i)
		}
	}
}

// TestKeyRange checks the lower-coordinate range over sub-ranges of every
// dimension, the empty range included.
func TestKeyRange(t *testing.T) {
	objs := randomObjects(200, 11)
	tab := FromObjects(objs)
	for dim := 0; dim < geom.Dims; dim++ {
		for _, r := range [][2]int{{0, 200}, {20, 180}, {7, 8}, {199, 200}, {50, 50}} {
			min, max := tab.KeyRange(r[0], r[1], dim)
			wantMin, wantMax := math.Inf(1), math.Inf(-1)
			for i := r[0]; i < r[1]; i++ {
				wantMin = math.Min(wantMin, objs[i].Min[dim])
				wantMax = math.Max(wantMax, objs[i].Min[dim])
			}
			if min != wantMin || max != wantMax {
				t.Fatalf("dim %d [%d,%d): KeyRange = (%g,%g), want (%g,%g)", dim, r[0], r[1], min, max, wantMin, wantMax)
			}
		}
	}
}

// mergeReference returns what Merge must leave: per segment, its rows not
// tombstoned in dead followed by its additions, and the new segment ends.
func mergeReference(rows []geom.Object, ends []int, dead Tombstones, add []geom.Object, seg []int) ([][]geom.Object, []int) {
	want := make([][]geom.Object, len(ends))
	wantEnds := make([]int, len(ends))
	lo, n := 0, 0
	for k, end := range ends {
		for _, o := range rows[lo:end] {
			if !dead.Has(o.ID) {
				want[k] = append(want[k], o)
			}
		}
		for i := range add {
			if seg[i] == k {
				want[k] = append(want[k], add[i])
			}
		}
		n += len(want[k])
		wantEnds[k] = n
		lo = end
	}
	return want, wantEnds
}

// checkMerge runs Merge on tab and compares the result with the reference:
// the new ends, every lane's length, and each segment's rows as a multiset
// (the order inside a segment is not part of Merge's contract). It returns
// Merge's count of rows written.
func checkMerge(t *testing.T, tab *Table, ends []int, dead Tombstones, add []geom.Object, seg []int) int {
	t.Helper()
	want, wantEnds := mergeReference(tab.Objects(nil), ends, dead, add, seg)
	n := wantEnds[len(wantEnds)-1]
	wrote := tab.Merge(ends, dead, add, seg)
	if tab.Len() != n || !slices.Equal(ends, wantEnds) {
		t.Fatalf("Len %d ends %v, want %d %v", tab.Len(), ends, n, wantEnds)
	}
	for d := 0; d < geom.Dims; d++ {
		if len(tab.Min[d]) != n || len(tab.Max[d]) != n {
			t.Fatalf("dim %d lanes hold %d/%d rows, want %d", d, len(tab.Min[d]), len(tab.Max[d]), n)
		}
	}
	byID := func(a, b geom.Object) int { return int(a.ID) - int(b.ID) }
	rows, lo := tab.Objects(nil), 0
	for k, end := range ends {
		got := rows[lo:end]
		slices.SortFunc(got, byID)
		slices.SortFunc(want[k], byID)
		if !slices.Equal(got, want[k]) {
			t.Fatalf("segment %d holds %v, want %v", k, got, want[k])
		}
		lo = end
	}
	return wrote
}

// TestMerge checks the update kernel against a per-segment reference over
// rounds of merges on one table: segments of random sizes (empty ones
// included), random dead rows, and additions spread over random segments,
// so the table shrinks, keeps its size, grows within its lanes' capacity
// and grows past it.
func TestMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nextID := int32(0)
	fresh := func(n int) []geom.Object {
		objs := randomObjects(n, rng.Int63())
		for i := range objs {
			objs[i].ID = nextID
			nextID++
		}
		return objs
	}
	for trial := 0; trial < 100; trial++ {
		tab := FromObjects(fresh(rng.Intn(300)))
		for round := 0; round < 4; round++ {
			n := tab.Len()
			var ends []int
			for end := 0; end < n || len(ends) == 0; {
				end = min(n, end+rng.Intn(40))
				ends = append(ends, end)
			}
			var dead Tombstones
			for _, id := range tab.ID {
				if rng.Intn(4) == 0 {
					dead = dead.With(id)
				}
			}
			add := fresh(rng.Intn(200))
			seg := make([]int, len(add))
			for i := range seg {
				seg[i] = rng.Intn(len(ends))
			}
			slices.Sort(seg)
			checkMerge(t, tab, ends, dead, add, seg)
		}
	}
}

// uniformSegments returns a table of segs segments of size rows each, IDs
// numbered by row, and its segment ends.
func uniformSegments(segs, size int) (*Table, []int) {
	objs := randomObjects(segs*size, 29)
	ends := make([]int, segs)
	for k := range ends {
		ends[k] = (k + 1) * size
	}
	return FromObjects(objs), ends
}

// TestMergeWritesOnlyShiftedRows pins the rows Merge writes on constructed
// batches. Closing a hole costs one move, a segment shifted by s moves
// min(|s|, live) rows, and each arrival is one write; rows that stay in
// their segment's range are never touched. The parent's two full sweeps
// wrote about 100,000 rows on the first batch.
func TestMergeWritesOnlyShiftedRows(t *testing.T) {
	// One dead row in segment 0 and one arrival in the last segment: every
	// segment after 0 shifts left by one and moves one row.
	tab, ends := uniformSegments(1000, 100)
	dead := TombstonesOf([]int32{50})
	add := randomObjects(1, 31)
	add[0].ID = 1 << 20
	if got, want := checkMerge(t, tab, ends, dead, add, []int{999}), 1+999+1; got != want {
		t.Fatalf("one dead, one arrival: wrote %d rows, want %d", got, want)
	}

	// The mirror image: one arrival in segment 0 shifts every later
	// segment right by one, and each moves one row.
	tab, ends = uniformSegments(1000, 100)
	add = randomObjects(1, 31)
	add[0].ID = 1 << 20
	if got, want := checkMerge(t, tab, ends, Tombstones{}, add, []int{0}), 999+1; got != want {
		t.Fatalf("one arrival up front: wrote %d rows, want %d", got, want)
	}

	// Balanced inside each segment: one dead row and one arrival in each
	// of ten segments. No segment shifts, so only the holes and the
	// arrivals are written.
	tab, ends = uniformSegments(1000, 100)
	var ids []int32
	add = randomObjects(10, 37)
	seg := make([]int, 10)
	for i := range seg {
		seg[i] = 100 * i
		ids = append(ids, int32(100*seg[i]+10))
		add[i].ID = int32(1<<20 + i)
	}
	if got, want := checkMerge(t, tab, ends, TombstonesOf(ids), add, seg), 10+10; got != want {
		t.Fatalf("balanced: wrote %d rows, want %d", got, want)
	}

	// Net growth past the lanes' capacity: 500 arrivals into segment 0
	// shift every later segment right by more than its size, so each of
	// them moves whole, within the N + A bound.
	const segs, size, arrivals = 100, 100, 500
	tab, ends = uniformSegments(segs, size)
	add = randomObjects(arrivals, 41)
	for i := range add {
		add[i].ID = int32(1<<20 + i)
	}
	got := checkMerge(t, tab, ends, Tombstones{}, add, make([]int, arrivals))
	if want := (segs-1)*size + arrivals; got != want || got > segs*size+arrivals {
		t.Fatalf("net growth: wrote %d rows, want %d (bound %d)", got, want, segs*size+arrivals)
	}
}

// FuzzMerge decodes a merge from its input — segment sizes (empty ones
// included), a dead mask over the rows, arrivals with their segments, and
// spare lane capacity — and checks Merge against the reference. The inputs
// cover shrinking, same-size, growth within capacity and growth past it.
// Run `go test -run '^$' -fuzz '^FuzzMerge$' ./internal/colstore`.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{3, 5, 0, 7, 0xff, 0x0f, 0, 4, 0, 1, 2, 2})
	f.Add([]byte{1, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{4, 8, 8, 8, 8, 0x55, 0x55, 0x55, 0x55, 16, 0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{2, 20, 1, 0, 0, 0, 40, 2, 0, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		segs := 1 + next()%16
		ends := make([]int, segs)
		n := 0
		for k := range ends {
			n += next() % 24
			ends[k] = n
		}
		spare := next() % 32
		tab := FromObjects(randomObjects(n+spare, int64(n)))
		for d := 0; d < geom.Dims; d++ {
			tab.Min[d], tab.Max[d] = tab.Min[d][:n], tab.Max[d][:n]
		}
		tab.ID = tab.ID[:n]
		var dead Tombstones
		for r := 0; r < n; r += 8 {
			mask := next()
			for b := 0; b < 8 && r+b < n; b++ {
				if mask&(1<<b) != 0 {
					dead = dead.With(int32(r + b))
				}
			}
		}
		add := randomObjects(next()%64, int64(n+1))
		seg := make([]int, len(add))
		for i := range add {
			add[i].ID = int32(n + spare + i)
			seg[i] = next() % segs
		}
		slices.Sort(seg)
		if got := checkMerge(t, tab, ends, dead, add, seg); got > n+len(add) {
			t.Fatalf("wrote %d rows, over the bound N + A = %d", got, n+len(add))
		}
	})
}

func TestReloadReusesLanes(t *testing.T) {
	big := randomObjects(1000, 17)
	tab := FromObjects(big)
	lane := &tab.Min[0][0]
	small := randomObjects(100, 19)
	tab.Reload(small)
	if tab.Len() != 100 {
		t.Fatalf("Len after reload = %d", tab.Len())
	}
	if &tab.Min[0][0] != lane {
		t.Fatal("Reload reallocated lanes despite sufficient capacity")
	}
	for i := range small {
		if tab.ObjectAt(i) != small[i] {
			t.Fatalf("row %d wrong after reload", i)
		}
	}
}

func TestMinDistSq(t *testing.T) {
	objs := randomObjects(100, 23)
	tab := FromObjects(objs)
	p := geom.Point{500, 500, 500}
	for i := range objs {
		if got, want := tab.MinDistSq(i, p), objs[i].MinDistSq(p); got != want {
			t.Fatalf("row %d: MinDistSq = %g, want %g", i, got, want)
		}
	}
}
