package scan

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

func TestEmpty(t *testing.T) {
	ix := New(nil)
	if ix.Len() != 0 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if res := ix.Query(geom.Box{Max: geom.Point{1, 1, 1}}, nil); len(res) != 0 {
		t.Fatalf("got %d results", len(res))
	}
}

func TestQueryFindsIntersecting(t *testing.T) {
	data := []geom.Object{
		{Box: geom.BoxAt(geom.Point{5, 5, 5}, 2), ID: 1},
		{Box: geom.BoxAt(geom.Point{50, 50, 50}, 2), ID: 2},
		{Box: geom.BoxAt(geom.Point{7, 5, 5}, 2), ID: 3},
	}
	ix := New(data)
	res := ix.Query(geom.NewBox(geom.Point{4, 4, 4}, geom.Point{6, 6, 6}), nil)
	if len(res) != 2 {
		t.Fatalf("res = %v, want IDs 1 and 3", res)
	}
}

func TestQueryAppendsToOut(t *testing.T) {
	data := []geom.Object{{Box: geom.BoxAt(geom.Point{1, 1, 1}, 1), ID: 9}}
	ix := New(data)
	out := []int32{7}
	out = ix.Query(geom.BoxAt(geom.Point{1, 1, 1}, 2), out)
	if len(out) != 2 || out[0] != 7 || out[1] != 9 {
		t.Fatalf("out = %v, want [7 9]", out)
	}
}

func TestDataNotMutated(t *testing.T) {
	data := dataset.Uniform(100, 2)
	snapshot := dataset.Clone(data)
	ix := New(data)
	ix.Query(dataset.Universe(), nil)
	for i := range data {
		if data[i] != snapshot[i] {
			t.Fatal("scan mutated data")
		}
	}
}
