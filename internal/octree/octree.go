// Package octree implements the space-oriented hierarchical substrate behind
// Mosaic: a 3-d octree that recursively halves space into eight equal
// octants (Jackins & Tanimoto, 1980). Objects are assigned to leaves by their
// center (query-extension assignment), so queries must be extended by half
// the maximum object extent per dimension.
//
// The package holds only the cell structure: package mosaic grows it
// incrementally at query time, splitting the leaves a query touches.
package octree

import (
	"repro/internal/geom"
)

// DefaultCapacity is the leaf capacity (objects per leaf before a split).
const DefaultCapacity = 60

// DefaultMaxDepth bounds the tree depth; 2^depth cells per dimension.
const DefaultMaxDepth = 8

// Node is one octree cell. Exported so package mosaic can drive query-time
// splits over the same structure.
type Node struct {
	Box      geom.Box
	Depth    int
	Children *[8]Node // nil for leaves
	Objs     []int32  // object indices, leaves only
	Gen      int      // query generation that created this node (used by mosaic)
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Children == nil }

// Octant returns the child index (0-7) of the octant of n containing p,
// with bit 0 = x-high, bit 1 = y-high, bit 2 = z-high.
func (n *Node) Octant(p geom.Point) int {
	c := n.Box.Center()
	idx := 0
	if p[0] >= c[0] {
		idx |= 1
	}
	if p[1] >= c[1] {
		idx |= 2
	}
	if p[2] >= c[2] {
		idx |= 4
	}
	return idx
}

// Split materializes n's eight children and redistributes its objects by
// center. n keeps no objects afterwards. data is the shared object array the
// indices point into.
func (n *Node) Split(data []geom.Object) {
	var children [8]Node
	c := n.Box.Center()
	for i := 0; i < 8; i++ {
		b := n.Box
		if i&1 != 0 {
			b.Min[0] = c[0]
		} else {
			b.Max[0] = c[0]
		}
		if i&2 != 0 {
			b.Min[1] = c[1]
		} else {
			b.Max[1] = c[1]
		}
		if i&4 != 0 {
			b.Min[2] = c[2]
		} else {
			b.Max[2] = c[2]
		}
		children[i] = Node{Box: b, Depth: n.Depth + 1, Gen: n.Gen}
	}
	for _, idx := range n.Objs {
		oct := n.Octant(data[idx].Center())
		children[oct].Objs = append(children[oct].Objs, idx)
	}
	n.Objs = nil
	n.Children = &children
}

// Extended grows q by half the max object extent per dimension — the query
// extension required by center-based assignment.
func Extended(q geom.Box, maxExt geom.Point) geom.Box {
	var half geom.Point
	for d := 0; d < geom.Dims; d++ {
		half[d] = maxExt[d] / 2
	}
	return q.Expand(half)
}
