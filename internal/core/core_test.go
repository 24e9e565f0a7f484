package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/scan"
	"repro/internal/workload"
)

// sortedIDs normalizes a result set for comparison.
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

func TestEmptyIndex(t *testing.T) {
	ix := New(nil, Config{})
	res := ix.Query(geom.Box{Min: geom.Point{0, 0, 0}, Max: geom.Point{1, 1, 1}}, nil)
	if len(res) != 0 {
		t.Fatalf("empty index returned %d results", len(res))
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleObject(t *testing.T) {
	data := []geom.Object{{Box: geom.Box{Min: geom.Point{1, 1, 1}, Max: geom.Point{2, 2, 2}}, ID: 7}}
	ix := New(data, Config{Tau: 4})
	hit := ix.Query(geom.Box{Min: geom.Point{0, 0, 0}, Max: geom.Point{3, 3, 3}}, nil)
	if len(hit) != 1 || hit[0] != 7 {
		t.Fatalf("hit = %v, want [7]", hit)
	}
	miss := ix.Query(geom.Box{Min: geom.Point{5, 5, 5}, Max: geom.Point{6, 6, 6}}, nil)
	if len(miss) != 0 {
		t.Fatalf("miss = %v, want []", miss)
	}
}

func TestEmptyQueryBox(t *testing.T) {
	data := dataset.Uniform(100, 1)
	ix := New(data, Config{})
	q := geom.Box{Min: geom.Point{5, 5, 5}, Max: geom.Point{1, 1, 1}} // inverted
	if res := ix.Query(q, nil); len(res) != 0 {
		t.Fatalf("inverted query returned %d results", len(res))
	}
}

func TestQueryOutsideUniverse(t *testing.T) {
	data := dataset.Uniform(500, 2)
	ix := New(dataset.Clone(data), Config{Tau: 16})
	q := geom.Box{Min: geom.Point{-5000, -5000, -5000}, Max: geom.Point{-1000, -1000, -1000}}
	if res := ix.Query(q, nil); len(res) != 0 {
		t.Fatalf("out-of-universe query returned %d results", len(res))
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryCoveringUniverse(t *testing.T) {
	data := dataset.Uniform(2000, 3)
	ix := New(dataset.Clone(data), Config{Tau: 16})
	q := dataset.Universe()
	res := ix.Query(q, nil)
	if len(res) != len(data) {
		t.Fatalf("universe query returned %d of %d objects", len(res), len(data))
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// runEquivalence drives the same query sequence through QUASII and Scan and
// requires identical result sets after every query, checking structural
// invariants along the way.
func runEquivalence(t *testing.T, data []geom.Object, queries []geom.Box, cfg Config) {
	t.Helper()
	oracle := scan.New(data)
	ix := New(dataset.Clone(data), cfg)
	var got, want []int32
	for qi, q := range queries {
		got = ix.Query(q, got[:0])
		want = oracle.Query(q, want[:0])
		if !equalIDs(sortedIDs(got), sortedIDs(want)) {
			t.Fatalf("query %d (%v): got %d results, scan %d", qi, q, len(got), len(want))
		}
		if qi%25 == 0 {
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("after query %d: %v", qi, err)
			}
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalenceUniformData(t *testing.T) {
	data := dataset.Uniform(5000, 11)
	queries := workload.Uniform(dataset.Universe(), 150, 1e-3, 12)
	runEquivalence(t, data, queries, Config{Tau: 32})
}

func TestEquivalenceClusteredWorkload(t *testing.T) {
	data := dataset.Neuro(5000, 13, dataset.NeuroConfig{})
	queries := workload.ClusteredOn(dataset.Universe(), data, 5, 30, 1e-4, 200, 14)
	runEquivalence(t, data, queries, Config{Tau: 32})
}

func TestEquivalenceHighSelectivity(t *testing.T) {
	data := dataset.Uniform(3000, 15)
	queries := workload.Uniform(dataset.Universe(), 40, 0.1, 16) // 10% queries
	runEquivalence(t, data, queries, Config{Tau: 32})
}

func TestEquivalenceTinyTau(t *testing.T) {
	data := dataset.Uniform(1000, 21)
	queries := workload.Uniform(dataset.Universe(), 80, 1e-2, 22)
	runEquivalence(t, data, queries, Config{Tau: 1})
}

func TestEquivalenceLargeObjects(t *testing.T) {
	// Boxes with corners anywhere in the universe: extreme extents stress the
	// query-extension logic.
	data := dataset.RandomBoxes(1500, 23, dataset.Universe())
	queries := workload.Uniform(dataset.Universe(), 80, 1e-3, 24)
	runEquivalence(t, data, queries, Config{Tau: 16})
}

func TestEquivalenceDuplicatePoints(t *testing.T) {
	// All objects identical: slices cannot be split spatially; the degenerate
	// guard must terminate refinement.
	b := geom.Box{Min: geom.Point{100, 100, 100}, Max: geom.Point{101, 101, 101}}
	data := make([]geom.Object, 500)
	for i := range data {
		data[i] = geom.Object{Box: b, ID: int32(i)}
	}
	queries := []geom.Box{
		{Min: geom.Point{0, 0, 0}, Max: geom.Point{200, 200, 200}},
		{Min: geom.Point{100.5, 100.5, 100.5}, Max: geom.Point{102, 102, 102}},
		{Min: geom.Point{0, 0, 0}, Max: geom.Point{50, 50, 50}},
	}
	runEquivalence(t, data, queries, Config{Tau: 8})
}

func TestEquivalenceZeroExtentObjects(t *testing.T) {
	// Point objects (zero extent in every dimension).
	rng := rand.New(rand.NewSource(25))
	data := make([]geom.Object, 2000)
	for i := range data {
		var p geom.Point
		for d := 0; d < geom.Dims; d++ {
			p[d] = rng.Float64() * 1000
		}
		data[i] = geom.Object{Box: geom.Box{Min: p, Max: p}, ID: int32(i)}
	}
	universe := geom.Box{Max: geom.Point{1000, 1000, 1000}}
	queries := workload.Uniform(universe, 100, 1e-2, 26)
	runEquivalence(t, data, queries, Config{Tau: 16})
}

func TestRepeatedIdenticalQueries(t *testing.T) {
	data := dataset.Uniform(4000, 27)
	q := workload.Uniform(dataset.Universe(), 1, 1e-3, 28)[0]
	oracle := scan.New(data)
	want := sortedIDs(oracle.Query(q, nil))
	ix := New(dataset.Clone(data), Config{Tau: 32})
	for i := 0; i < 10; i++ {
		got := sortedIDs(ix.Query(q, nil))
		if !equalIDs(got, want) {
			t.Fatalf("iteration %d: got %d results, want %d", i, len(got), len(want))
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConvergenceRefinesTowardTau(t *testing.T) {
	data := dataset.Uniform(20000, 29)
	ix := New(dataset.Clone(data), Config{Tau: 60})
	queries := workload.Uniform(dataset.Universe(), 300, 1e-2, 30)
	for _, q := range queries {
		ix.Query(q, nil)
	}
	if ix.NumSlices() < 10 {
		t.Fatalf("expected substantial refinement, got %d slices", ix.NumSlices())
	}
	st := ix.Stats()
	if st.Cracks == 0 || st.SlicesCreated == 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
}

func TestCrackingWorkDecreases(t *testing.T) {
	// The amount of data reorganized per query must shrink as the index
	// converges — QUASII's core claim.
	data := dataset.Uniform(30000, 31)
	ix := New(dataset.Clone(data), Config{})
	queries := workload.Uniform(dataset.Universe(), 200, 1e-3, 32)
	var firstWork, lastWork int64
	for i, q := range queries {
		before := ix.Stats().CrackedObjects
		ix.Query(q, nil)
		work := ix.Stats().CrackedObjects - before
		if i == 0 {
			firstWork = work
		}
		if i == len(queries)-1 {
			lastWork = work
		}
	}
	if firstWork == 0 {
		t.Fatal("first query should crack data")
	}
	if lastWork*4 > firstWork {
		t.Fatalf("cracking work did not decrease: first=%d last=%d", firstWork, lastWork)
	}
}

// workPin is the work Config{} does on one pinned stream: crack, slice and
// scan counters and the final slice count.
type workPin struct {
	cracks                       int
	crackedObjects               int64
	slicesCreated, slicesRefined int
	objectsTested, resultObjects int64
	numSlices                    int
}

// TestDefaultConfigWorkPinned pins what Config{} does on a fixed clustered
// stream, seeds 1–8: the exact crack, slice and scan counters and the final
// slice count, for the stream under unbounded Query, under QueryBudgeted at
// budgets 1 and 3, and after Complete. Any change to how the default
// configuration cracks, splits or scans moves one of these numbers.
func TestDefaultConfigWorkPinned(t *testing.T) {
	query := func(ix *Index, qs []geom.Box) {
		for _, q := range qs {
			ix.Query(q, nil)
		}
	}
	budgeted := func(budget int) func(*Index, []geom.Box) {
		return func(ix *Index, qs []geom.Box) {
			for _, q := range qs {
				ix.QueryBudgeted(q, nil, budget)
			}
		}
	}
	for _, tc := range []struct {
		name string
		run  func(*Index, []geom.Box)
		want []workPin
	}{
		{"Query", query, []workPin{
			{97, 69322, 208, 102, 17808, 2544, 138},
			{130, 64334, 264, 141, 32278, 6662, 162},
			{122, 64984, 256, 135, 25028, 6951, 164},
			{130, 64008, 266, 142, 26398, 5291, 168},
			{99, 56461, 214, 112, 44491, 13408, 129},
			{160, 65693, 321, 178, 39340, 11068, 195},
			{109, 60150, 228, 116, 41082, 12346, 144},
			{107, 61618, 221, 114, 25481, 5630, 142},
		}},
		{"QueryBudgeted(1)", budgeted(1), []workPin{
			{90, 82346, 248, 95, 116994, 2544, 139},
			{87, 63924, 223, 92, 110104, 6662, 115},
			{79, 61875, 208, 87, 130928, 6951, 114},
			{92, 59761, 244, 93, 77666, 5291, 129},
			{85, 59236, 222, 97, 97140, 13408, 116},
			{115, 73687, 304, 121, 136177, 11068, 159},
			{100, 60788, 262, 104, 96200, 12346, 135},
			{93, 84061, 262, 104, 129355, 5630, 143},
		}},
		{"QueryBudgeted(3)", budgeted(3), []workPin{
			{98, 71144, 219, 104, 26065, 2544, 142},
			{116, 63222, 258, 127, 52112, 6662, 155},
			{109, 63566, 241, 120, 35835, 6951, 150},
			{132, 63499, 284, 141, 39146, 5291, 170},
			{111, 60455, 251, 125, 50336, 13408, 147},
			{150, 67680, 313, 168, 54911, 11068, 186},
			{121, 59515, 261, 125, 49852, 12346, 155},
			{106, 64261, 228, 112, 28409, 5630, 141},
		}},
		{"Complete", func(ix *Index, qs []geom.Box) {
			ix.Complete()
			query(ix, qs)
		}, []workPin{
			{253, 80453, 549, 294, 18598, 2544, 301},
			{242, 78295, 521, 281, 35751, 6662, 286},
			{243, 75151, 526, 283, 27516, 6951, 286},
			{244, 78087, 523, 281, 30907, 5291, 284},
			{251, 79134, 552, 296, 56671, 13408, 302},
			{240, 78545, 528, 283, 44864, 11068, 289},
			{242, 77714, 526, 281, 42260, 12346, 288},
			{235, 75954, 516, 279, 27037, 5630, 282},
		}},
	} {
		for i, w := range tc.want {
			seed := int64(i + 1)
			data := dataset.Neuro(8000, seed, dataset.NeuroConfig{})
			ix := New(data, Config{})
			tc.run(ix, workload.ClusteredOn(dataset.Universe(), data, 5, 30, 1e-4, 200, seed+100))
			st := ix.Stats()
			got := workPin{st.Cracks, st.CrackedObjects, st.SlicesCreated, st.SlicesRefined,
				st.ObjectsTested, st.ResultObjects, ix.NumSlices()}
			if got != w {
				t.Errorf("%s seed %d: got %v, want %v", tc.name, seed, got, w)
			}
		}
	}
}

// TestFirstQueryPassesPinned pins the work of query #1 on 200 k uniform
// objects: rows moved through crack passes and rows read by key-range
// sweeps, for a box at the universe's centre and one at the centre of
// crack_stream's first query cluster. The root carries the data MBB, the
// crack-in-three's second pass re-reads the smaller side and artificial
// refinement carries its key bound, so no sweep runs at all.
func TestFirstQueryPassesPinned(t *testing.T) {
	u := dataset.Universe()
	side := workload.SideForSelectivity(u, 1e-4)
	data := dataset.Uniform(200_000, 1)
	for _, tc := range []struct {
		name             string
		centre           geom.Point
		cracked, scanned int64
	}{
		{"centre", u.Center(), 586067, 0},
		{"cluster0", geom.Point{1500, 1500, 1500}, 336526, 0},
	} {
		ix := New(dataset.Clone(data), Config{})
		ix.Query(geom.BoxAt(tc.centre, side), nil)
		if st := ix.Stats(); st.CrackedObjects != tc.cracked || st.ScannedRows != tc.scanned {
			t.Errorf("%s: query #1 moved %d rows and swept %d; want %d and %d",
				tc.name, st.CrackedObjects, st.ScannedRows, tc.cracked, tc.scanned)
		}
	}
}

func TestTauLevels(t *testing.T) {
	data := dataset.Uniform(100000, 33)
	ix := New(data, Config{Tau: 60})
	// r = ceil((100000/60)^(1/3)) = ceil(11.86) = 12.
	if got := ix.Tau(2); got != 60 {
		t.Errorf("tau_z = %d, want 60", got)
	}
	if got := ix.Tau(1); got != 720 {
		t.Errorf("tau_y = %d, want 720", got)
	}
	if got := ix.Tau(0); got != 8640 {
		t.Errorf("tau_x = %d, want 8640", got)
	}
}

func TestTauDefault(t *testing.T) {
	ix := New(dataset.Uniform(100, 34), Config{})
	if ix.Tau(geom.Dims-1) != DefaultTau {
		t.Fatalf("default tau = %d, want %d", ix.Tau(geom.Dims-1), DefaultTau)
	}
}

// Property test: for random small datasets and random query sequences, QUASII
// and Scan agree and invariants hold. testing/quick drives the seeds.
func TestEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(500)
		data := dataset.RandomBoxes(n, seed, geom.Box{Max: geom.Point{500, 500, 500}})
		// Shrink most boxes so results are selective.
		for i := range data {
			for d := 0; d < geom.Dims; d++ {
				if data[i].Max[d]-data[i].Min[d] > 50 {
					data[i].Max[d] = data[i].Min[d] + 50
				}
			}
		}
		oracle := scan.New(data)
		ix := New(dataset.Clone(data), Config{Tau: 1 + rng.Intn(20)})
		for qi := 0; qi < 30; qi++ {
			var a, b geom.Point
			for d := 0; d < geom.Dims; d++ {
				a[d] = rng.Float64() * 500
				b[d] = a[d] + rng.Float64()*100
			}
			q := geom.Box{Min: a, Max: b}
			got := sortedIDs(ix.Query(q, nil))
			want := sortedIDs(oracle.Query(q, nil))
			if !equalIDs(got, want) {
				t.Logf("seed %d query %d: got %d want %d", seed, qi, len(got), len(want))
				return false
			}
		}
		return ix.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsMonotone(t *testing.T) {
	data := dataset.Uniform(5000, 37)
	ix := New(dataset.Clone(data), Config{})
	queries := workload.Uniform(dataset.Universe(), 50, 1e-3, 38)
	var prev Stats
	for _, q := range queries {
		ix.Query(q, nil)
		st := ix.Stats()
		if st.Queries <= prev.Queries || st.Cracks < prev.Cracks ||
			st.ObjectsTested < prev.ObjectsTested || st.SlicesCreated < prev.SlicesCreated {
			t.Fatalf("stats not monotone: %+v -> %+v", prev, st)
		}
		prev = st
	}
	if prev.Queries != len(queries) {
		t.Fatalf("Queries = %d, want %d", prev.Queries, len(queries))
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
	data := dataset.Uniform(4000, 65)
	ix := New(dataset.Clone(data), Config{Tau: 32})
	queries := workload.Uniform(dataset.Universe(), 25, 1e-3, 66)
	for qi, q := range queries {
		p := q.Center()
		got := ix.KNN(p, 10)
		want := knnBrute(data, p, 10)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d neighbors, want %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i].DistSq != want[i].DistSq {
				t.Fatalf("query %d neighbor %d: dist %g, want %g", qi, i, got[i].DistSq, want[i].DistSq)
			}
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestKNNRefinesIndex(t *testing.T) {
	data := dataset.Uniform(20000, 67)
	ix := New(dataset.Clone(data), Config{})
	before := ix.NumSlices()
	ix.KNN(geom.Point{5000, 5000, 5000}, 10)
	if ix.NumSlices() <= before {
		t.Fatal("KNN should refine the index as a side effect")
	}
}

func TestKNNEdgeCases(t *testing.T) {
	data := dataset.Uniform(50, 68)
	ix := New(dataset.Clone(data), Config{Tau: 8})
	if nn := ix.KNN(geom.Point{0, 0, 0}, 0); nn != nil {
		t.Fatalf("k=0 should return nil, got %v", nn)
	}
	if nn := ix.KNN(geom.Point{0, 0, 0}, 500); len(nn) != 50 {
		t.Fatalf("k>n should return all %d, got %d", 50, len(nn))
	}
	empty := New(nil, Config{})
	if nn := empty.KNN(geom.Point{0, 0, 0}, 5); nn != nil {
		t.Fatalf("empty index KNN = %v", nn)
	}
	// Probe far outside the universe.
	far := ix.KNN(geom.Point{1e6, 1e6, 1e6}, 3)
	want := knnBrute(data, geom.Point{1e6, 1e6, 1e6}, 3)
	if len(far) != 3 || far[0].DistSq != want[0].DistSq {
		t.Fatalf("far probe: got %v, want %v", far, want)
	}
}

func TestQueryPositionsStableWithinCall(t *testing.T) {
	// Query's ID translation relies on collected positions staying valid for
	// the duration of the call; a query spanning many slices exercises it.
	data := dataset.Uniform(20000, 69)
	oracle := scan.New(data)
	ix := New(dataset.Clone(data), Config{Tau: 16})
	q := workload.Uniform(dataset.Universe(), 1, 0.3, 70)[0] // 30% of the universe
	got := sortedIDs(ix.Query(q, nil))
	want := sortedIDs(oracle.Query(q, nil))
	if !equalIDs(got, want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
}
