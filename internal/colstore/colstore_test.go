package colstore

import (
	"math"
	"math/rand"
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

func TestAppendCompactTruncate(t *testing.T) {
	objs := randomObjects(100, 13)
	tab := FromObjects(objs[:50])
	tab.AppendObjects(objs[50:])
	if tab.Len() != 100 {
		t.Fatalf("Len after append = %d", tab.Len())
	}
	dead := map[int32]struct{}{3: {}, 40: {}, 99: {}}
	n := tab.Compact(dead)
	if n != 97 || tab.Len() != 97 {
		t.Fatalf("Compact -> %d rows, want 97", n)
	}
	for i := 0; i < tab.Len(); i++ {
		if _, gone := dead[tab.ID[i]]; gone {
			t.Fatalf("dead ID %d survived compaction", tab.ID[i])
		}
	}
	// Survivor order is preserved.
	prev := int32(-1)
	for i := 0; i < tab.Len(); i++ {
		if tab.ID[i] <= prev {
			t.Fatalf("order not preserved at row %d", i)
		}
		prev = tab.ID[i]
	}
	tab.Truncate(10)
	if tab.Len() != 10 {
		t.Fatalf("Truncate -> %d rows", tab.Len())
	}
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
