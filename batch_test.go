package quasii_test

import (
	"bytes"
	"testing"

	quasii "repro"
)

func TestBatchQueryMatchesSequential(t *testing.T) {
	data := quasii.UniformDataset(5000, 1101)
	tr := quasii.NewRTree(data, quasii.RTreeConfig{})
	queries := quasii.UniformQueries(200, 1e-3, 1102)

	seq := quasii.BatchQuery(tr, queries, 1)
	par := quasii.BatchQuery(tr, queries, 8)
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if !equalIDs(sortedIDs(seq[i]), sortedIDs(par[i])) {
			t.Fatalf("query %d: sequential %d results, parallel %d", i, len(seq[i]), len(par[i]))
		}
	}
}

func TestBatchQueryDefaultsWorkers(t *testing.T) {
	data := quasii.UniformDataset(1000, 1103)
	tr := quasii.NewRTree(data, quasii.RTreeConfig{})
	queries := quasii.UniformQueries(10, 1e-2, 1104)
	res := quasii.BatchQuery(tr, queries, 0)
	if len(res) != 10 {
		t.Fatalf("got %d results", len(res))
	}
}

func TestBatchQueryEmptyWorkload(t *testing.T) {
	data := quasii.UniformDataset(100, 1105)
	tr := quasii.NewRTree(data, quasii.RTreeConfig{})
	if res := quasii.BatchQuery(tr, nil, 4); len(res) != 0 {
		t.Fatalf("got %d results for empty workload", len(res))
	}
}

func TestBatchQuerySynchronizedIncremental(t *testing.T) {
	// Run with -race: a Synchronize-wrapped QUASII must survive a parallel
	// batch and return correct results.
	data := quasii.UniformDataset(4000, 1106)
	oracle := quasii.NewScan(data)
	ix := quasii.Synchronize(quasii.NewQUASII(quasii.CloneObjects(data), quasii.QUASIIConfig{}))
	queries := quasii.UniformQueries(100, 1e-3, 1107)
	res := quasii.BatchQuery(ix, queries, 8)
	for i, q := range queries {
		want := sortedIDs(oracle.Query(q, nil))
		if !equalIDs(sortedIDs(res[i]), want) {
			t.Fatalf("query %d: got %d results, want %d", i, len(res[i]), len(want))
		}
	}
}

func TestSaveLoadQUASIIPublicAPI(t *testing.T) {
	data := quasii.UniformDataset(2000, 1108)
	ix := quasii.NewQUASII(quasii.CloneObjects(data), quasii.QUASIIConfig{})
	queries := quasii.UniformQueries(30, 1e-3, 1109)
	for _, q := range queries {
		ix.Query(q, nil)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := quasii.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	oracle := quasii.NewScan(data)
	for qi, q := range quasii.UniformQueries(30, 1e-3, 1110) {
		got := sortedIDs(loaded.Query(q, nil))
		want := sortedIDs(oracle.Query(q, nil))
		if !equalIDs(got, want) {
			t.Fatalf("query %d after reload: got %d, want %d", qi, len(got), len(want))
		}
	}
}
