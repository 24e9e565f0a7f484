package sfc

import (
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

func TestStaticEmpty(t *testing.T) {
	ix := New(nil, Config{})
	if res := ix.Query(geom.Box{Max: geom.Point{1, 1, 1}}, nil); len(res) != 0 {
		t.Fatalf("empty index returned %d results", len(res))
	}
}

func TestStaticMatchesScan(t *testing.T) {
	data := dataset.Uniform(5000, 41)
	oracle := scan.New(data)
	ix := New(data, Config{Universe: dataset.Universe()})
	queries := workload.Uniform(dataset.Universe(), 100, 1e-3, 42)
	for qi, q := range queries {
		got := sortedIDs(ix.Query(q, nil))
		want := sortedIDs(oracle.Query(q, nil))
		if !equalIDs(got, want) {
			t.Fatalf("query %d: got %d results, want %d", qi, len(got), len(want))
		}
	}
}

func TestStaticMatchesScanExactDecomposition(t *testing.T) {
	data := dataset.Uniform(2000, 43)
	oracle := scan.New(data)
	ix := New(data, Config{Universe: dataset.Universe(), MaxIntervals: -1})
	queries := workload.Uniform(dataset.Universe(), 30, 1e-3, 44)
	for qi, q := range queries {
		got := sortedIDs(ix.Query(q, nil))
		want := sortedIDs(oracle.Query(q, nil))
		if !equalIDs(got, want) {
			t.Fatalf("query %d: got %d, want %d", qi, len(got), len(want))
		}
	}
}

func TestStaticLargeObjects(t *testing.T) {
	// Query extension must catch objects whose center is far from the query.
	data := dataset.RandomBoxes(1000, 45, dataset.Universe())
	oracle := scan.New(data)
	ix := New(data, Config{Universe: dataset.Universe()})
	queries := workload.Uniform(dataset.Universe(), 40, 1e-3, 46)
	for qi, q := range queries {
		got := sortedIDs(ix.Query(q, nil))
		want := sortedIDs(oracle.Query(q, nil))
		if !equalIDs(got, want) {
			t.Fatalf("query %d: got %d, want %d", qi, len(got), len(want))
		}
	}
}

func TestCrackerMatchesScan(t *testing.T) {
	data := dataset.Uniform(5000, 47)
	oracle := scan.New(data)
	cr := NewCracker(dataset.Clone(data), Config{Universe: dataset.Universe()})
	queries := workload.Uniform(dataset.Universe(), 120, 1e-3, 48)
	for qi, q := range queries {
		got := sortedIDs(cr.Query(q, nil))
		want := sortedIDs(oracle.Query(q, nil))
		if !equalIDs(got, want) {
			t.Fatalf("query %d: got %d results, want %d", qi, len(got), len(want))
		}
		if qi%30 == 0 {
			if err := cr.CheckInvariants(); err != nil {
				t.Fatalf("after query %d: %v", qi, err)
			}
		}
	}
	if err := cr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCrackerClusteredWorkload(t *testing.T) {
	data := dataset.Neuro(4000, 49, dataset.NeuroConfig{})
	oracle := scan.New(data)
	cr := NewCracker(dataset.Clone(data), Config{Universe: dataset.Universe()})
	queries := workload.ClusteredOn(dataset.Universe(), data, 4, 25, 1e-4, 200, 50)
	for qi, q := range queries {
		got := sortedIDs(cr.Query(q, nil))
		want := sortedIDs(oracle.Query(q, nil))
		if !equalIDs(got, want) {
			t.Fatalf("query %d: got %d, want %d", qi, len(got), len(want))
		}
	}
}

func TestCrackerLazyTransformation(t *testing.T) {
	data := dataset.Uniform(1000, 51)
	cr := NewCracker(dataset.Clone(data), Config{Universe: dataset.Universe()})
	if cr.Stats().TransformedData {
		t.Fatal("transformation should be deferred until the first query")
	}
	cr.Query(workload.Uniform(dataset.Universe(), 1, 1e-3, 52)[0], nil)
	if !cr.Stats().TransformedData {
		t.Fatal("first query should transform the data")
	}
}

func TestCrackerStatsAccumulate(t *testing.T) {
	data := dataset.Uniform(3000, 53)
	cr := NewCracker(dataset.Clone(data), Config{Universe: dataset.Universe()})
	queries := workload.Uniform(dataset.Universe(), 20, 1e-3, 54)
	for _, q := range queries {
		cr.Query(q, nil)
	}
	st := cr.Stats()
	if st.Queries != 20 || st.Cracks == 0 || st.Intervals == 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestCrackerCrackingWorkDecreases(t *testing.T) {
	data := dataset.Uniform(20000, 55)
	cr := NewCracker(dataset.Clone(data), Config{Universe: dataset.Universe()})
	queries := workload.Clustered(dataset.Universe(), 1, 100, 1e-4, 100, 56)
	var first, last int64
	for i, q := range queries {
		before := cr.Stats().CrackedEntries
		cr.Query(q, nil)
		work := cr.Stats().CrackedEntries - before
		if i == 0 {
			first = work
		}
		if i == len(queries)-1 {
			last = work
		}
	}
	if first == 0 {
		t.Fatal("first query should crack")
	}
	if last > first {
		t.Fatalf("cracking work grew: first=%d last=%d", first, last)
	}
}

func TestCrackerEmptyData(t *testing.T) {
	cr := NewCracker(nil, Config{})
	if res := cr.Query(geom.Box{Max: geom.Point{1, 1, 1}}, nil); len(res) != 0 {
		t.Fatalf("got %d results from empty cracker", len(res))
	}
}

func TestCrackerRepeatedQueriesStable(t *testing.T) {
	data := dataset.Uniform(2000, 57)
	oracle := scan.New(data)
	cr := NewCracker(dataset.Clone(data), Config{Universe: dataset.Universe()})
	q := workload.Uniform(dataset.Universe(), 1, 1e-2, 58)[0]
	want := sortedIDs(oracle.Query(q, nil))
	for i := 0; i < 5; i++ {
		got := sortedIDs(cr.Query(q, nil))
		if !equalIDs(got, want) {
			t.Fatalf("iteration %d: got %d, want %d", i, len(got), len(want))
		}
	}
}

func TestConfigDerivedUniverse(t *testing.T) {
	data := dataset.Uniform(500, 59)
	ix := New(data, Config{}) // universe derived from data MBB
	oracle := scan.New(data)
	q := workload.Uniform(dataset.Universe(), 1, 1e-2, 60)[0]
	got := sortedIDs(ix.Query(q, nil))
	want := sortedIDs(oracle.Query(q, nil))
	if !equalIDs(got, want) {
		t.Fatalf("derived-universe query: got %d, want %d", len(got), len(want))
	}
}

func TestWideBitsMatchScan(t *testing.T) {
	// A code holds 21 bits per dimension. A wider grid must be clamped to
	// that, or distinct cells share a code and query ranges overflow.
	data := dataset.Uniform(5000, 161)
	oracle := scan.New(data)
	queries := workload.Uniform(dataset.Universe(), 50, 1e-3, 162)
	for _, bits := range []uint{21, 22, 32} {
		cfg := Config{Universe: dataset.Universe(), Bits: bits}
		variants := []struct {
			name string
			ix   interface {
				Query(geom.Box, []int32) []int32
			}
		}{
			{"static", New(data, cfg)},
			{"cracker", NewCracker(dataset.Clone(data), cfg)},
		}
		for _, v := range variants {
			for qi, q := range queries {
				got := sortedIDs(v.ix.Query(q, nil))
				want := sortedIDs(oracle.Query(q, nil))
				if !equalIDs(got, want) {
					t.Fatalf("bits %d %s query %d: got %d, want %d", bits, v.name, qi, len(got), len(want))
				}
			}
		}
	}
}

func TestLenBothVariants(t *testing.T) {
	data := dataset.Uniform(55, 150)
	if got := New(data, Config{}).Len(); got != 55 {
		t.Fatalf("static Len = %d", got)
	}
	cr := NewCracker(dataset.Clone(data), Config{})
	if got := cr.Len(); got != 55 {
		t.Fatalf("cracker Len before transform = %d", got)
	}
	cr.Query(geom.BoxAt(geom.Point{5000, 5000, 5000}, 100), nil)
	if got := cr.Len(); got != 55 {
		t.Fatalf("cracker Len after transform = %d", got)
	}
}
