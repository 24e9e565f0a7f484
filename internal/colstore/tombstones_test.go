package colstore

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// TestTombstonesMatchMap holds every prefix view of one generation to a map
// reference: IDs drawn from a small range (so repeats occur) and the edges
// of int32 (0, negatives, math.MaxInt32, math.MinInt32), added across
// several table growths. Each view answers Has exactly as the reference did
// at its length and lists its IDs in insertion order, even after later
// additions and growths.
func TestTombstonesMatchMap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	edges := []int32{0, -1, math.MaxInt32, math.MinInt32, 1, -2}
	var order []int32
	ref := map[int32]int{} // ID -> 1-based insertion ordinal
	views := []Tombstones{{}}
	var v Tombstones
	for len(order) < 700 {
		var id int32
		switch {
		case len(edges) > 0 && rng.Intn(50) == 0:
			id, edges = edges[0], edges[1:]
		case rng.Intn(2) == 0:
			id = int32(rng.Intn(2000) - 1000)
		default:
			id = int32(rng.Uint32())
		}
		next := v.With(id)
		if _, dup := ref[id]; dup {
			if next != v {
				t.Fatalf("With(%d) of a held ID changed the view", id)
			}
			continue
		}
		order = append(order, id)
		ref[id] = len(order)
		v = next
		views = append(views, v)
	}
	if len(edges) > 0 {
		t.Fatalf("edge IDs %v never drawn", edges)
	}
	probes := append([]int32{math.MaxInt32, math.MinInt32, 0, -1}, order...)
	for i := 0; i < 500; i++ {
		probes = append(probes, int32(rng.Intn(2000)-1000), int32(rng.Uint32()))
	}
	for n, view := range views {
		if view.Len() != n {
			t.Fatalf("view %d: Len = %d", n, view.Len())
		}
		if got := view.IDs(); !slices.Equal(got, order[:n]) {
			t.Fatalf("view %d: IDs = %v, want %v", n, got, order[:n])
		}
		for _, id := range probes {
			ord, held := ref[id]
			if want := held && ord <= n; view.Has(id) != want {
				t.Fatalf("view %d: Has(%d) = %v, want %v", n, id, !want, want)
			}
		}
	}
	if got := TombstonesOf(append(order, order[:10]...)); !slices.Equal(got.IDs(), order) {
		t.Fatal("TombstonesOf does not rebuild the view in order, repeats once")
	}
	if !panics(func() { views[len(views)/2].With(math.MinInt32 + 7) }) {
		t.Fatal("With on a superseded view did not panic")
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestTombstonesConcurrentReaders runs one writer that adds IDs through
// several table growths while readers check views the writer published
// earlier: a view pinned before a growth keeps reading its frozen table,
// and one pinned after reads the shared table the writer keeps filling.
// Run it with -race.
func TestTombstonesConcurrentReaders(t *testing.T) {
	const adds, readers = 3000, 3
	published := make(chan Tombstones, adds)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(published)
		var v Tombstones
		for i := 0; i < adds; i++ {
			v = v.With(int32(i * 7919))
			published <- v
		}
	}()
	views := make([]chan Tombstones, readers)
	for r := range views {
		views[r] = make(chan Tombstones, adds)
		wg.Add(1)
		go func(in <-chan Tombstones) {
			defer wg.Done()
			for v := range in {
				n := v.Len()
				if ids := v.IDs(); len(ids) != n || ids[n-1] != int32((n-1)*7919) {
					t.Errorf("view %d: IDs end with %d", n, ids[len(ids)-1])
					return
				}
				for _, k := range []int{0, n / 2, n - 1, n, n + 1, 2 * n} {
					if got, want := v.Has(int32(k*7919)), k < n; got != want {
						t.Errorf("view %d: Has(ID %d) = %v, want %v", n, k, got, want)
						return
					}
				}
			}
		}(views[r])
	}
	for v := range published {
		for _, c := range views {
			c <- v
		}
	}
	for _, c := range views {
		close(c)
	}
	wg.Wait()
}

// TestScanVisibleMatchesReference checks both visible kernels — over a
// view and over a map — against a per-row reference, with and without
// tombstones.
func TestScanVisibleMatchesReference(t *testing.T) {
	objs := dataset.Uniform(3000, 5)
	tab := FromObjects(objs)
	rng := rand.New(rand.NewSource(6))
	for _, every := range []int{0, 3, 50} {
		var view Tombstones
		dead := map[int32]struct{}{}
		for i := 0; every > 0 && i < len(objs); i += every {
			view = view.With(objs[i].ID)
			dead[objs[i].ID] = struct{}{}
		}
		for qi := 0; qi < 30; qi++ {
			var a, b geom.Point
			for d := 0; d < geom.Dims; d++ {
				a[d] = rng.Float64() * dataset.UniverseSide
				b[d] = a[d] + rng.Float64()*dataset.UniverseSide/3
			}
			q := geom.Box{Min: a, Max: b}
			lo := rng.Intn(len(objs))
			hi := lo + rng.Intn(len(objs)-lo)
			var want []int32
			for j := lo; j < hi; j++ {
				if _, gone := dead[objs[j].ID]; !gone && objs[j].Intersects(q) {
					want = append(want, objs[j].ID)
				}
			}
			if got := tab.ScanVisible(lo, hi, q, view, nil); !slices.Equal(got, want) {
				t.Fatalf("every %d query %d: ScanVisible = %d IDs, want %d", every, qi, len(got), len(want))
			}
			if got := tab.ScanIntersectVisible(lo, hi, q, dead, nil); !slices.Equal(got, want) {
				t.Fatalf("every %d query %d: ScanIntersectVisible = %d IDs, want %d", every, qi, len(got), len(want))
			}
		}
	}
}
