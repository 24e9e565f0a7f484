package octree

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

func TestOctantIndexing(t *testing.T) {
	n := Node{Box: geom.Box{Max: geom.Point{2, 2, 2}}}
	tests := []struct {
		p    geom.Point
		want int
	}{
		{geom.Point{0.5, 0.5, 0.5}, 0},
		{geom.Point{1.5, 0.5, 0.5}, 1},
		{geom.Point{0.5, 1.5, 0.5}, 2},
		{geom.Point{0.5, 0.5, 1.5}, 4},
		{geom.Point{1.5, 1.5, 1.5}, 7},
	}
	for _, tt := range tests {
		if got := n.Octant(tt.p); got != tt.want {
			t.Errorf("Octant(%v) = %d, want %d", tt.p, got, tt.want)
		}
	}
}

func TestSplitPartitionsChildren(t *testing.T) {
	data := dataset.Uniform(100, 106)
	n := Node{Box: dataset.Universe()}
	for i := range data {
		n.Objs = append(n.Objs, int32(i))
	}
	n.Split(data)
	if n.IsLeaf() || len(n.Objs) != 0 {
		t.Fatal("split node should be internal and empty")
	}
	total := 0
	for i := range n.Children {
		c := &n.Children[i]
		total += len(c.Objs)
		for _, idx := range c.Objs {
			if c.Octant(data[idx].Center()) != 0 && !c.Box.ContainsPoint(data[idx].Center()) {
				t.Fatalf("object %d center %v outside child box %v", idx, data[idx].Center(), c.Box)
			}
		}
	}
	if total != len(data) {
		t.Fatalf("children hold %d of %d objects", total, len(data))
	}
}

func TestLenAndExtended(t *testing.T) {
	// Extension is half the max extent per dimension (center assignment).
	q := geom.BoxAt(geom.Point{10, 10, 10}, 2)
	ext := Extended(q, geom.Point{4, 6, 8})
	want := geom.Box{Min: geom.Point{7, 6, 5}, Max: geom.Point{13, 14, 15}}
	if ext != want {
		t.Fatalf("Extended = %v, want %v", ext, want)
	}
}
