package rtree

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/scan"
	"repro/internal/workload"
)

func sortedIDs(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmptyTree(t *testing.T) {
	tr := New(nil, Config{})
	if res := tr.Query(geom.Box{Max: geom.Point{1, 1, 1}}, nil); len(res) != 0 {
		t.Fatalf("empty tree returned %d results", len(res))
	}
	if tr.Height() != 0 {
		t.Fatalf("empty tree height = %d", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if nn := tr.KNN(geom.Point{0, 0, 0}, 3); nn != nil {
		t.Fatalf("empty tree KNN = %v", nn)
	}
}

func TestSingleObject(t *testing.T) {
	data := []geom.Object{{Box: geom.BoxAt(geom.Point{5, 5, 5}, 2), ID: 42}}
	tr := New(data, Config{})
	if tr.Height() != 1 {
		t.Fatalf("height = %d, want 1", tr.Height())
	}
	res := tr.Query(geom.BoxAt(geom.Point{5, 5, 5}, 1), nil)
	if len(res) != 1 || res[0] != 42 {
		t.Fatalf("res = %v", res)
	}
}

func TestInputNotMutated(t *testing.T) {
	data := dataset.Uniform(1000, 61)
	snapshot := dataset.Clone(data)
	New(data, Config{})
	for i := range data {
		if data[i] != snapshot[i] {
			t.Fatal("New mutated the caller's slice")
		}
	}
}

func TestMatchesScanUniform(t *testing.T) {
	data := dataset.Uniform(10000, 62)
	oracle := scan.New(data)
	tr := New(data, Config{})
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for qi, q := range workload.Uniform(dataset.Universe(), 100, 1e-3, 63) {
		got := sortedIDs(tr.Query(q, nil))
		want := sortedIDs(oracle.Query(q, nil))
		if !equalIDs(got, want) {
			t.Fatalf("query %d: got %d, want %d", qi, len(got), len(want))
		}
	}
}

func TestMatchesScanClustered(t *testing.T) {
	data := dataset.Neuro(8000, 64, dataset.NeuroConfig{})
	oracle := scan.New(data)
	tr := New(data, Config{})
	for qi, q := range workload.ClusteredOn(dataset.Universe(), data, 4, 25, 1e-4, 200, 65) {
		got := sortedIDs(tr.Query(q, nil))
		want := sortedIDs(oracle.Query(q, nil))
		if !equalIDs(got, want) {
			t.Fatalf("query %d: got %d, want %d", qi, len(got), len(want))
		}
	}
}

func TestMatchesScanLargeObjects(t *testing.T) {
	data := dataset.RandomBoxes(2000, 66, dataset.Universe())
	oracle := scan.New(data)
	tr := New(data, Config{Capacity: 16})
	for qi, q := range workload.Uniform(dataset.Universe(), 50, 1e-3, 67) {
		got := sortedIDs(tr.Query(q, nil))
		want := sortedIDs(oracle.Query(q, nil))
		if !equalIDs(got, want) {
			t.Fatalf("query %d: got %d, want %d", qi, len(got), len(want))
		}
	}
}

func TestHeightGrowth(t *testing.T) {
	// capacity 4: 100 objects -> 25 leaves -> 7 -> 2 -> 1: height 4.
	data := dataset.Uniform(100, 68)
	tr := New(data, Config{Capacity: 4})
	if tr.Height() != 4 {
		t.Fatalf("height = %d, want 4", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryTested: QueryTested answers like Query, and its count is the
// entries of every leaf reached: at least the results, fewer than all
// objects for a selective box, and every object for a box covering them
// all.
func TestQueryTested(t *testing.T) {
	data := dataset.Uniform(3000, 70)
	tr := New(data, Config{})
	for i, q := range workload.Uniform(dataset.Universe(), 50, 1e-2, 71) {
		got, tested := tr.QueryTested(q, nil)
		if !equalIDs(sortedIDs(got), sortedIDs(tr.Query(q, nil))) {
			t.Fatalf("query %d: QueryTested and Query disagree", i)
		}
		if tested < len(got) || tested >= len(data) {
			t.Fatalf("query %d: tested %d objects for %d results", i, tested, len(got))
		}
	}
	if _, tested := tr.QueryTested(geom.MBB(data), nil); tested != len(data) {
		t.Fatalf("covering box tested %d objects, want %d", tested, len(data))
	}
	if _, tested := tr.QueryTested(geom.EmptyBox(), nil); tested != 0 {
		t.Fatalf("empty box tested %d objects", tested)
	}
}

func TestCapacityDefault(t *testing.T) {
	data := dataset.Uniform(200, 69)
	tr := New(data, Config{Capacity: -5})
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// 200 objects with capacity 60 -> 4 leaves -> 1 root: height 2.
	if tr.Height() != 2 {
		t.Fatalf("height = %d, want 2", tr.Height())
	}
}

func knnBrute(data []geom.Object, p geom.Point, k int) []Neighbor {
	nn := make([]Neighbor, len(data))
	for i := range data {
		nn[i] = Neighbor{ID: data[i].ID, DistSq: data[i].MinDistSq(p)}
	}
	sort.Slice(nn, func(i, j int) bool {
		if nn[i].DistSq != nn[j].DistSq {
			return nn[i].DistSq < nn[j].DistSq
		}
		return nn[i].ID < nn[j].ID
	})
	if k > len(nn) {
		k = len(nn)
	}
	return nn[:k]
}

func TestKNNMatchesBruteForce(t *testing.T) {
	data := dataset.Uniform(2000, 72)
	tr := New(data, Config{Capacity: 16})
	queries := workload.Uniform(dataset.Universe(), 20, 1e-3, 73)
	for qi, q := range queries {
		p := q.Center()
		got := tr.KNN(p, 10)
		want := knnBrute(data, p, 10)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d neighbors, want %d", qi, len(got), len(want))
		}
		for i := range got {
			// Distances must match exactly; IDs may differ on ties.
			if math.Abs(got[i].DistSq-want[i].DistSq) > 1e-9 {
				t.Fatalf("query %d neighbor %d: dist %g, want %g", qi, i, got[i].DistSq, want[i].DistSq)
			}
		}
		// Result must be sorted by distance.
		for i := 1; i < len(got); i++ {
			if got[i].DistSq < got[i-1].DistSq {
				t.Fatalf("query %d: KNN result not sorted", qi)
			}
		}
	}
}

func TestKNNMoreThanData(t *testing.T) {
	data := dataset.Uniform(5, 74)
	tr := New(data, Config{})
	nn := tr.KNN(geom.Point{0, 0, 0}, 100)
	if len(nn) != 5 {
		t.Fatalf("KNN returned %d, want all 5", len(nn))
	}
}

func TestSTRLeafOverlapLowerThanRandomOrder(t *testing.T) {
	// STR exists to minimize overlap; verify its leaves overlap less than
	// leaves packed in the input (random) order.
	data := dataset.Uniform(6000, 75)
	str := New(data, Config{})
	// Random-order packing: chunk the unsorted array.
	overlap := func(leaves []geom.Box) float64 {
		var total float64
		for i := 0; i < len(leaves); i++ {
			for j := i + 1; j < len(leaves); j++ {
				inter := leaves[i].Intersection(leaves[j])
				if !inter.IsEmpty() {
					total += inter.Volume()
				}
			}
		}
		return total
	}
	var strLeaves, randLeaves []geom.Box
	for lo := 0; lo < len(str.data); lo += str.cap {
		hi := lo + str.cap
		if hi > len(str.data) {
			hi = len(str.data)
		}
		strLeaves = append(strLeaves, geom.MBB(str.data[lo:hi]))
		randLeaves = append(randLeaves, geom.MBB(data[lo:hi]))
	}
	if o1, o2 := overlap(strLeaves), overlap(randLeaves); o1 >= o2 {
		t.Fatalf("STR leaf overlap %g not lower than random packing %g", o1, o2)
	}
}
