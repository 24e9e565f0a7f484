package core

// White-box tests of Algorithm 2's slicing decisions: three-way when both
// query bounds fall inside a slice, two-way when one does, artificial
// midpoint split when the query contains the slice, and the τ-driven
// finalization rules.

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// lineData places n unit boxes at x = 0..n-1 (y, z fixed) so crack positions
// are exactly predictable.
func lineData(n int) []geom.Object {
	data := make([]geom.Object, n)
	for i := range data {
		x := float64(i)
		data[i] = geom.Object{
			Box: geom.Box{Min: geom.Point{x, 0, 0}, Max: geom.Point{x + 0.5, 1, 1}},
			ID:  int32(i),
		}
	}
	return data
}

// rootSlices returns the x-level slice ranges after the given queries.
func rootSlices(ix *Index) [][2]int {
	var out [][2]int
	for _, s := range ix.root.slices {
		out = append(out, [2]int{s.lo, s.hi})
	}
	return out
}

func TestThreeWaySliceWhenQueryInterior(t *testing.T) {
	// 100 objects, query x in [30.2, 39.8]: both bounds interior. τ = 20
	// gives τ_x = 80, so the initial slice cracks but none of the three
	// resulting bands (30, 10, 60 objects) triggers artificial refinement:
	// exactly [0,30), [30,40), [40,100) — the extended lower bound is 29.7
	// (max extent 0.5), so objects 30..39 sit in the middle band.
	data := lineData(100)
	ix := New(data, Config{Tau: 20})
	q := geom.Box{Min: geom.Point{30.2, 0, 0}, Max: geom.Point{39.8, 1, 1}}
	ix.Query(q, nil)
	got := rootSlices(ix)
	if len(got) != 3 {
		t.Fatalf("root slices = %v, want 3 bands", got)
	}
	if got[0] != [2]int{0, 30} || got[1] != [2]int{30, 40} || got[2] != [2]int{40, 100} {
		t.Fatalf("bands = %v, want [0,30) [30,40) [40,100)", got)
	}
}

func TestTwoWaySliceWhenOneBoundInterior(t *testing.T) {
	// Query from before the data to x=49.8: only the upper bound interior.
	data := lineData(100)
	ix := New(data, Config{Tau: 20})
	q := geom.Box{Min: geom.Point{-10, 0, 0}, Max: geom.Point{49.8, 1, 1}}
	ix.Query(q, nil)
	got := rootSlices(ix)
	if len(got) != 2 {
		t.Fatalf("root slices = %v, want 2 bands", got)
	}
	if got[0] != [2]int{0, 50} || got[1] != [2]int{50, 100} {
		t.Fatalf("bands = %v, want [0,50) [50,100)", got)
	}
}

func TestArtificialSliceWhenQueryContainsSlice(t *testing.T) {
	// A query covering everything: the default case splits at the midpoint.
	data := lineData(100)
	ix := New(data, Config{Tau: 20})
	q := geom.Box{Min: geom.Point{-10, -10, -10}, Max: geom.Point{200, 200, 200}}
	ix.Query(q, nil)
	got := rootSlices(ix)
	if len(got) != 2 {
		t.Fatalf("root slices = %v, want 2 halves", got)
	}
	// Midpoint of lower-coordinate range [0, 99.5] is ~49.75 -> split at 50.
	if got[0][1] != 50 {
		t.Fatalf("artificial split at %d, want 50 (bands %v)", got[0][1], got)
	}
}

func TestArtificialRefinementEnforcesTau(t *testing.T) {
	// With a small tau, every query-overlapping slice must end <= tau_x.
	data := lineData(256)
	ix := New(data, Config{Tau: 4})
	q := geom.Box{Min: geom.Point{100.2, 0, 0}, Max: geom.Point{149.8, 1, 1}}
	ix.Query(q, nil)
	tauX := ix.Tau(0)
	for _, s := range ix.root.slices {
		overlaps := s.box.Max[0] >= q.Min[0]-ix.live.Load().maxExt[0] && s.box.Min[0] <= q.Max[0]
		if overlaps && s.size() > tauX {
			t.Fatalf("query-overlapping slice [%d,%d) exceeds tau_x=%d", s.lo, s.hi, tauX)
		}
	}
}

// TestArtificialCutNearFloatLimit: lower corners whose sum overflows float64
// must still split at a midpoint strictly inside their range; a cut at +Inf
// puts every row on one side and the split recurses until the stack
// overflows.
func TestArtificialCutNearFloatLimit(t *testing.T) {
	data := make([]geom.Object, 200)
	for i := range data {
		x := 1e308 + float64(i)*3.5e305
		p := geom.Point{x, x, x}
		data[i] = geom.Object{Box: geom.Box{Min: p, Max: p}, ID: int32(i)}
	}
	ix := New(data, Config{Tau: 8})
	q := geom.Box{Max: geom.Point{math.MaxFloat64, math.MaxFloat64, math.MaxFloat64}}
	if got := len(ix.Query(q, nil)); got != len(data) {
		t.Fatalf("query covering every object returned %d of %d", got, len(data))
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c := artificialCut(math.Inf(-1), math.Inf(1)); !(c > math.Inf(-1) && c < math.Inf(1)) {
		t.Fatalf("artificialCut(-Inf, +Inf) = %g, want a finite cut", c)
	}
}

func TestNonOverlappingSlicesStayCoarse(t *testing.T) {
	// Bands outside the query must not be refined further (lazy refinement).
	data := lineData(1000)
	ix := New(data, Config{Tau: 4})
	q := geom.Box{Min: geom.Point{10.2, 0, 0}, Max: geom.Point{19.8, 1, 1}}
	ix.Query(q, nil)
	last := ix.root.slices[len(ix.root.slices)-1]
	if last.size() < 900 {
		t.Fatalf("right band should remain coarse, got size %d", last.size())
	}
	if last.refined {
		t.Fatal("untouched band should not be finalized")
	}
}

func TestFinalizedSliceHasExactMBB(t *testing.T) {
	data := lineData(64)
	ix := New(data, Config{Tau: 20})
	q := geom.Box{Min: geom.Point{20.2, 0, 0}, Max: geom.Point{29.8, 1, 1}}
	ix.Query(q, nil)
	for _, s := range ix.root.slices {
		if !s.refined {
			continue
		}
		want := ix.data.MBB(s.lo, s.hi)
		if s.box != want {
			t.Fatalf("refined slice [%d,%d) box %v != exact MBB %v", s.lo, s.hi, s.box, want)
		}
	}
}

func TestOpenEndedBoxesBeforeRefinement(t *testing.T) {
	// An unrefined x-slice has exact bounds in x but infinite bounds in y/z.
	data := lineData(1000)
	ix := New(data, Config{Tau: 4})
	q := geom.Box{Min: geom.Point{10.2, 0, 0}, Max: geom.Point{19.8, 1, 1}}
	ix.Query(q, nil)
	var sawOpen bool
	for _, s := range ix.root.slices {
		if s.refined {
			continue
		}
		if math.IsInf(s.box.Min[0], -1) || math.IsInf(s.box.Max[0], 1) {
			t.Fatalf("unrefined slice missing exact x bounds: %v", s.box)
		}
		if math.IsInf(s.box.Min[1], -1) && math.IsInf(s.box.Max[2], 1) {
			sawOpen = true
		}
	}
	if !sawOpen {
		t.Fatal("expected at least one open-ended slice box")
	}
}

func TestChildLevelsFollowDimensions(t *testing.T) {
	data := lineData(512)
	ix := New(data, Config{Tau: 8})
	q := geom.Box{Min: geom.Point{100.2, 0.1, 0.1}, Max: geom.Point{119.8, 0.9, 0.9}}
	ix.Query(q, nil)
	var walk func(l *sliceList, level int)
	walk = func(l *sliceList, level int) {
		for _, s := range l.slices {
			if s.level != level {
				t.Fatalf("slice level %d at depth %d", s.level, level)
			}
			if s.children != nil {
				if level == geom.Dims-1 {
					t.Fatal("bottom-level slice has children")
				}
				walk(s.children, level+1)
			}
		}
	}
	walk(ix.root, 0)
}

func TestBinarySearchSkipsLeadingSlices(t *testing.T) {
	// After refinement, a far-right query must not touch (test) objects in
	// far-left slices: ObjectsTested stays near the result size.
	data := lineData(10000)
	ix := New(data, Config{Tau: 16})
	// Refine broadly first.
	for i := 0; i < 20; i++ {
		lo := float64(i * 500)
		ix.Query(geom.Box{Min: geom.Point{lo, 0, 0}, Max: geom.Point{lo + 200, 1, 1}}, nil)
	}
	before := ix.Stats().ObjectsTested
	res := ix.Query(geom.Box{Min: geom.Point{9000.2, 0, 0}, Max: geom.Point{9099.8, 1, 1}}, nil)
	tested := ix.Stats().ObjectsTested - before
	if len(res) == 0 {
		t.Fatal("query found nothing")
	}
	if tested > int64(len(res))*4+int64(ix.Tau(2))*4 {
		t.Fatalf("tested %d objects for %d results — search not selective", tested, len(res))
	}
}
