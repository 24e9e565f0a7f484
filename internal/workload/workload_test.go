package workload

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

func TestSideForSelectivity(t *testing.T) {
	u := dataset.Universe()
	side := SideForSelectivity(u, 1e-3)
	wantVol := u.Volume() * 1e-3
	gotVol := side * side * side
	if math.Abs(gotVol-wantVol)/wantVol > 1e-9 {
		t.Fatalf("volume = %g, want %g", gotVol, wantVol)
	}
}

func checkQueries(t *testing.T, queries []geom.Box, universe geom.Box, selectivity float64) {
	t.Helper()
	wantVol := universe.Volume() * selectivity
	for i, q := range queries {
		if q.IsEmpty() {
			t.Fatalf("query %d empty", i)
		}
		if !universe.Contains(q) {
			t.Fatalf("query %d %v outside universe", i, q)
		}
		if math.Abs(q.Volume()-wantVol)/wantVol > 1e-6 {
			t.Fatalf("query %d volume %g, want %g", i, q.Volume(), wantVol)
		}
	}
}

func TestUniformQueries(t *testing.T) {
	u := dataset.Universe()
	queries := Uniform(u, 500, 1e-3, 1)
	if len(queries) != 500 {
		t.Fatalf("len = %d", len(queries))
	}
	checkQueries(t, queries, u, 1e-3)
}

func TestClusteredQueries(t *testing.T) {
	u := dataset.Universe()
	queries := Clustered(u, 5, 100, 1e-4, 200, 2)
	if len(queries) != 500 {
		t.Fatalf("len = %d", len(queries))
	}
	checkQueries(t, queries, u, 1e-4)
}

func TestClusteredQueriesAreClustered(t *testing.T) {
	u := dataset.Universe()
	queries := Clustered(u, 5, 100, 1e-4, 100, 3)
	// Mean distance between consecutive queries within a cluster must be far
	// below the mean distance across cluster boundaries.
	dist := func(a, b geom.Box) float64 {
		ca, cb := a.Center(), b.Center()
		var s float64
		for d := 0; d < geom.Dims; d++ {
			s += (ca[d] - cb[d]) * (ca[d] - cb[d])
		}
		return math.Sqrt(s)
	}
	var within, across float64
	var nw, na int
	for i := 1; i < len(queries); i++ {
		if i%100 == 0 {
			across += dist(queries[i-1], queries[i])
			na++
		} else {
			within += dist(queries[i-1], queries[i])
			nw++
		}
	}
	if na == 0 || nw == 0 {
		t.Fatal("bad test setup")
	}
	if within/float64(nw)*3 > across/float64(na) {
		t.Errorf("within-cluster mean dist %.1f not clearly below across-cluster %.1f",
			within/float64(nw), across/float64(na))
	}
}

func TestClusteredOnTargetsData(t *testing.T) {
	// Data confined to one corner: clustered-on queries must all be near it.
	data := dataset.RandomBoxes(200, 4, geom.Box{Max: geom.Point{500, 500, 500}})
	u := dataset.Universe()
	queries := ClusteredOn(u, data, 3, 20, 1e-4, 50, 5)
	for i, q := range queries {
		c := q.Center()
		for d := 0; d < geom.Dims; d++ {
			if c[d] > 1500 {
				t.Fatalf("query %d center %v far from the data corner", i, c)
			}
		}
	}
}

func TestClusteredOnEmptyDataFallsBack(t *testing.T) {
	u := dataset.Universe()
	queries := ClusteredOn(u, nil, 2, 5, 1e-4, 100, 6)
	if len(queries) != 10 {
		t.Fatalf("len = %d, want 10", len(queries))
	}
	checkQueries(t, queries, u, 1e-4)
}

func TestHugeSelectivityClamped(t *testing.T) {
	u := dataset.Universe()
	queries := Uniform(u, 10, 2.0, 7) // 200% volume: clamp to the universe
	for i, q := range queries {
		if !u.Contains(q) {
			t.Fatalf("query %d outside universe", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	u := dataset.Universe()
	a := Uniform(u, 50, 1e-3, 9)
	b := Uniform(u, 50, 1e-3, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Uniform queries not deterministic")
		}
	}
}

func TestSequentialQueries(t *testing.T) {
	u := dataset.Universe()
	queries := Sequential(u, 200, 1e-3, 0)
	if len(queries) != 200 {
		t.Fatalf("len = %d", len(queries))
	}
	checkQueries(t, queries, u, 1e-3)
	// Consecutive queries before a wrap must not overlap and must march in x.
	for i := 1; i < 10; i++ {
		if queries[i].Min[0] < queries[i-1].Max[0]-1e-9 {
			t.Fatalf("queries %d and %d overlap in x: %v %v", i-1, i, queries[i-1], queries[i])
		}
	}
}

func TestSequentialBadDimFallsBack(t *testing.T) {
	u := dataset.Universe()
	queries := Sequential(u, 10, 1e-3, 99)
	checkQueries(t, queries, u, 1e-3)
}

func TestZipfQueries(t *testing.T) {
	u := dataset.Universe()
	queries := Zipf(u, 1000, 1e-3, 1.2, 31)
	if len(queries) != 1000 {
		t.Fatalf("len = %d", len(queries))
	}
	checkQueries(t, queries, u, 1e-3)
}

func TestZipfIsSkewed(t *testing.T) {
	// Most queries should land in a small number of hotspot regions: the
	// median pairwise distance to the most popular center must be small for
	// a large fraction of queries.
	u := dataset.Universe()
	queries := Zipf(u, 2000, 1e-4, 1.5, 32)
	// Bucket query centers into a coarse grid and look at the top bucket.
	buckets := make(map[[3]int]int)
	for _, q := range queries {
		c := q.Center()
		key := [3]int{int(c[0] / 1000), int(c[1] / 1000), int(c[2] / 1000)}
		buckets[key]++
	}
	max := 0
	for _, v := range buckets {
		if v > max {
			max = v
		}
	}
	if float64(max) < 0.2*float64(len(queries)) {
		t.Errorf("top bucket holds only %d of %d queries; not skewed enough", max, len(queries))
	}
}

func TestZipfDeterministic(t *testing.T) {
	u := dataset.Universe()
	a := Zipf(u, 50, 1e-3, 1.0, 33)
	b := Zipf(u, 50, 1e-3, 1.0, 33)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Zipf not deterministic")
		}
	}
}

// TestNamed pins loadgen's dispatcher: every pattern yields exactly n boxes
// inside the universe (clustered included when n is not a multiple of its
// five clusters), a non-positive skew means 1.2, a seed fixes the boxes, and
// an unknown name is an error.
func TestNamed(t *testing.T) {
	u := dataset.Universe()
	data := dataset.Uniform(2000, 11)
	for _, name := range []string{"", "uniform", "clustered", "zipf", "sequential"} {
		for _, n := range []int{7, 100} {
			got, err := Named(name, u, data, n, 1e-4, 0, 12)
			if err != nil {
				t.Fatalf("%q n=%d: %v", name, n, err)
			}
			if len(got) != n {
				t.Fatalf("%q n=%d: %d boxes", name, n, len(got))
			}
			checkQueries(t, got, u, 1e-4)
			again, _ := Named(name, u, data, n, 1e-4, 0, 12)
			skewed, _ := Named(name, u, data, n, 1e-4, 1.2, 12)
			for i := range got {
				if again[i] != got[i] {
					t.Fatalf("%q n=%d: box %d differs under the same seed", name, n, i)
				}
				if skewed[i] != got[i] {
					t.Fatalf("%q n=%d: box %d differs between skew 0 and 1.2", name, n, i)
				}
			}
		}
	}
	if _, err := Named("nosuch", u, data, 10, 1e-4, 0, 12); err == nil {
		t.Fatal("unknown workload name accepted")
	}
}
