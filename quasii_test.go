package quasii_test

import (
	"sort"
	"testing"

	quasii "repro"
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

// allIndexes constructs every index in the module over (clones of) data.
func allIndexes(data []quasii.Object) map[string]quasii.Index {
	return map[string]quasii.Index{
		"Scan":           quasii.NewScan(data),
		"QUASII":         quasii.NewQUASII(quasii.CloneObjects(data), quasii.QUASIIConfig{}),
		"R-Tree":         quasii.NewRTree(data, quasii.RTreeConfig{}),
		"Grid/QueryExt":  quasii.NewGrid(data, quasii.GridConfig{Partitions: 24, Universe: quasii.Universe()}),
		"Grid/Replicate": quasii.NewGrid(data, quasii.GridConfig{Partitions: 24, Assign: quasii.GridReplication, Universe: quasii.Universe()}),
		"Mosaic":         quasii.NewMosaic(data, quasii.MosaicConfig{Universe: quasii.Universe()}),
		"SFC":            quasii.NewSFC(data, quasii.SFCConfig{Universe: quasii.Universe()}),
		"SFCracker":      quasii.NewSFCracker(quasii.CloneObjects(data), quasii.SFCConfig{Universe: quasii.Universe()}),
		"Sharded/4":      quasii.NewSharded(data, quasii.ShardedConfig{Shards: 4}),
		"Synchronized":   quasii.Synchronize(quasii.NewQUASII(quasii.CloneObjects(data), quasii.QUASIIConfig{})),
	}
}

// TestAllIndexesAgree is the module-level integration test: every index must
// return exactly the Scan result set for every query of a mixed workload, on
// both the uniform and the clustered dataset.
func TestAllIndexesAgree(t *testing.T) {
	datasets := map[string][]quasii.Object{
		"uniform": quasii.UniformDataset(6000, 201),
		"neuro":   quasii.NeuroDataset(6000, 202, quasii.NeuroConfig{}),
	}
	for dsName, data := range datasets {
		dsName, data := dsName, data
		t.Run(dsName, func(t *testing.T) {
			queries := append(
				quasii.UniformQueries(60, 1e-3, 203),
				quasii.ClusteredQueries(data, 3, 20, 1e-4, 200, 204)...)
			oracle := quasii.NewScan(data)
			indexes := allIndexes(data)
			var want, got []int32
			for qi, q := range queries {
				want = sortedIDs(oracle.Query(q, want[:0]))
				for name, ix := range indexes {
					got = sortedIDs(ix.Query(q, got[:0]))
					if !equalIDs(got, want) {
						t.Fatalf("%s query %d: got %d results, scan %d", name, qi, len(got), len(want))
					}
				}
			}
		})
	}
}

func TestPublicAPIQuickstart(t *testing.T) {
	// The README quick-start must actually work.
	objects := []quasii.Object{
		{Box: quasii.BoxAt(quasii.Point{5, 5, 5}, 2), ID: 1},
		{Box: quasii.BoxAt(quasii.Point{50, 50, 50}, 2), ID: 2},
	}
	ix := quasii.NewQUASII(objects, quasii.QUASIIConfig{})
	hits := ix.Query(quasii.NewBox(quasii.Point{0, 0, 0}, quasii.Point{10, 10, 10}), nil)
	if len(hits) != 1 || hits[0] != 1 {
		t.Fatalf("hits = %v, want [1]", hits)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestQUASIIStatsExposed(t *testing.T) {
	data := quasii.UniformDataset(2000, 205)
	ix := quasii.NewQUASII(data, quasii.QUASIIConfig{})
	for _, q := range quasii.UniformQueries(10, 1e-2, 206) {
		ix.Query(q, nil)
	}
	st := ix.Stats()
	if st.Queries != 10 || st.Cracks == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRTreeKNNExposed(t *testing.T) {
	data := quasii.UniformDataset(1000, 207)
	tr := quasii.NewRTree(data, quasii.RTreeConfig{})
	nn := tr.KNN(quasii.Point{5000, 5000, 5000}, 5)
	if len(nn) != 5 {
		t.Fatalf("KNN returned %d, want 5", len(nn))
	}
	for i := 1; i < len(nn); i++ {
		if nn[i].DistSq < nn[i-1].DistSq {
			t.Fatal("KNN not sorted by distance")
		}
	}
}

func TestMBBHelper(t *testing.T) {
	objs := []quasii.Object{
		{Box: quasii.BoxAt(quasii.Point{1, 1, 1}, 2), ID: 0},
		{Box: quasii.BoxAt(quasii.Point{9, 9, 9}, 2), ID: 1},
	}
	m := quasii.MBB(objs)
	if m.Min != (quasii.Point{0, 0, 0}) || m.Max != (quasii.Point{10, 10, 10}) {
		t.Fatalf("MBB = %v", m)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := quasii.UniformDataset(100, 42)
	b := quasii.UniformDataset(100, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("UniformDataset not deterministic for equal seeds")
		}
	}
	c := quasii.UniformDataset(100, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

// TestShardedPublicAPI exercises the sharded engine through the re-exported
// surface: construction, batch queries, aggregated stats, and a custom
// sub-index constructor.
func TestShardedPublicAPI(t *testing.T) {
	data := quasii.UniformDataset(4000, 301)
	oracle := quasii.NewScan(data)
	queries := quasii.UniformQueries(50, 1e-3, 302)

	ix := quasii.NewSharded(data, quasii.ShardedConfig{Shards: 8})
	if ix.Len() != len(data) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(data))
	}
	if ix.NumShards() < 1 || ix.NumShards() > 8 {
		t.Fatalf("NumShards = %d", ix.NumShards())
	}

	var want []int32
	for qi, ids := range ix.QueryBatch(queries) {
		want = sortedIDs(oracle.Query(queries[qi], want[:0]))
		if !equalIDs(sortedIDs(ids), want) {
			t.Fatalf("batch query %d: got %d results, scan %d", qi, len(ids), len(want))
		}
	}

	st := ix.Stats()
	if st.Objects != len(data) || st.Core.Queries == 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}
