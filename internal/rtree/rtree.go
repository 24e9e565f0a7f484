// Package rtree implements the static reference index of the QUASII paper: an
// R-tree bulk-loaded with the Sort-Tile-Recursive (STR) algorithm of
// Leutenegger et al. (ICDE 1997), with the paper's node capacity of 60.
//
// STR sorts the objects by x-center into vertical slabs, each slab by
// y-center into runs, and each run by z-center into leaf tiles. Because the
// resulting leaf order is a single permutation of the data array, leaves
// reference contiguous ranges of one packed array — the data is stored once,
// in tile order, and leaf scans are sequential. Upper levels pack consecutive
// nodes, which in STR order are spatially coherent.
//
// A best-first k-nearest-neighbor search is provided as an extension (range
// queries are "the building block for many other spatial queries", Sec. 2).
package rtree

import (
	"container/heap"
	"sort"

	"repro/internal/geom"
)

// DefaultCapacity is the paper's node capacity.
const DefaultCapacity = 60

// Config controls R-tree construction.
type Config struct {
	// Capacity is the maximum number of entries per node (leaf and internal).
	// Values < 2 mean DefaultCapacity.
	Capacity int
}

type node struct {
	box      geom.Box
	children []*node // nil for leaves
	lo, hi   int     // leaf: data range [lo,hi)
}

// Tree is an STR bulk-loaded R-tree.
type Tree struct {
	data []geom.Object // in STR tile order
	root *node
	cap  int
	// Height of the tree (1 = a single leaf).
	height int
}

// New bulk-loads an R-tree over data using STR. The input slice is copied so
// the caller's array stays untouched (the paper's static indexes do not
// reorganize caller data in place).
func New(data []geom.Object, cfg Config) *Tree {
	if cfg.Capacity < 2 {
		cfg.Capacity = DefaultCapacity
	}
	t := &Tree{data: make([]geom.Object, len(data)), cap: cfg.Capacity}
	copy(t.data, data)
	if len(t.data) == 0 {
		return t
	}
	t.strSort()
	leaves := t.packLeaves()
	t.height = 1
	level := leaves
	for len(level) > 1 {
		level = t.packLevel(level)
		t.height++
	}
	t.root = level[0]
	return t
}

// strSort arranges the data array into STR tile order.
func (t *Tree) strSort() {
	n := len(t.data)
	m := t.cap
	p := (n + m - 1) / m // number of leaves
	s := int(cbrtCeil(p))
	if s < 1 {
		s = 1
	}
	// Slab sizes: s slabs on x, each split into s runs on y, each chunked
	// into leaves of m on z.
	byCenter := func(d int) func(a, b geom.Object) bool {
		return func(a, b geom.Object) bool {
			return a.Min[d]+a.Max[d] < b.Min[d]+b.Max[d]
		}
	}
	// Canonical STR sizing: slabs of S²·M objects and runs of S·M objects,
	// both multiples of the leaf capacity M, so that the later chunking into
	// leaves of M never straddles a run or slab boundary (a straddling leaf
	// would span two distant tiles and blow up overlap).
	sortRange(t.data, byCenter(0))
	slab := s * s * m
	run := s * m
	for lo := 0; lo < n; lo += slab {
		hi := lo + slab
		if hi > n {
			hi = n
		}
		sortRange(t.data[lo:hi], byCenter(1))
		for rlo := lo; rlo < hi; rlo += run {
			rhi := rlo + run
			if rhi > hi {
				rhi = hi
			}
			sortRange(t.data[rlo:rhi], byCenter(2))
		}
	}
}

func sortRange(objs []geom.Object, less func(a, b geom.Object) bool) {
	sort.Slice(objs, func(i, j int) bool { return less(objs[i], objs[j]) })
}

// cbrtCeil returns ceil(p^(1/3)) for positive p.
func cbrtCeil(p int) int {
	s := 1
	for s*s*s < p {
		s++
	}
	return s
}

// packLeaves chunks the tile-ordered data into leaves of up to cap objects.
func (t *Tree) packLeaves() []*node {
	n := len(t.data)
	leaves := make([]*node, 0, (n+t.cap-1)/t.cap)
	for lo := 0; lo < n; lo += t.cap {
		hi := lo + t.cap
		if hi > n {
			hi = n
		}
		leaves = append(leaves, &node{
			box: geom.MBB(t.data[lo:hi]),
			lo:  lo, hi: hi,
		})
	}
	return leaves
}

// packLevel groups consecutive nodes (already in STR order) into parents.
func (t *Tree) packLevel(level []*node) []*node {
	parents := make([]*node, 0, (len(level)+t.cap-1)/t.cap)
	for lo := 0; lo < len(level); lo += t.cap {
		hi := lo + t.cap
		if hi > len(level) {
			hi = len(level)
		}
		box := geom.EmptyBox()
		for _, c := range level[lo:hi] {
			box = box.Extend(c.box)
		}
		parents = append(parents, &node{box: box, children: level[lo:hi]})
	}
	return parents
}

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return len(t.data) }

// Height returns the number of levels (1 = single leaf). 0 for empty trees.
func (t *Tree) Height() int { return t.height }

// Query appends the IDs of all objects intersecting q to out.
func (t *Tree) Query(q geom.Box, out []int32) []int32 {
	out, _ = t.QueryTested(q, out)
	return out
}

// QueryTested is Query that also returns how many objects it tested
// against q: the entries of every leaf the descent reached, the counterpart
// of QUASII's Stats.ObjectsTested.
func (t *Tree) QueryTested(q geom.Box, out []int32) ([]int32, int) {
	if t.root == nil || q.IsEmpty() {
		return out, 0
	}
	return t.query(t.root, q, out)
}

func (t *Tree) query(n *node, q geom.Box, out []int32) ([]int32, int) {
	if n.children == nil {
		for i := n.lo; i < n.hi; i++ {
			if t.data[i].Intersects(q) {
				out = append(out, t.data[i].ID)
			}
		}
		return out, n.hi - n.lo
	}
	tested := 0
	for _, c := range n.children {
		if c.box.Intersects(q) {
			var k int
			out, k = t.query(c, q, out)
			tested += k
		}
	}
	return out, tested
}

// Neighbor is one kNN result: an object ID and its squared distance to the
// query point.
type Neighbor struct {
	ID     int32
	DistSq float64
}

// knnItem is a priority-queue entry: either a node or an object.
type knnItem struct {
	distSq float64
	node   *node
	objIdx int // valid when node == nil
}

type knnQueue []knnItem

func (q knnQueue) Len() int            { return len(q) }
func (q knnQueue) Less(i, j int) bool  { return q[i].distSq < q[j].distSq }
func (q knnQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *knnQueue) Push(x interface{}) { *q = append(*q, x.(knnItem)) }
func (q *knnQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// KNN returns the k objects nearest to p (by box distance), closest first.
// It is the classic best-first search over the R-tree.
func (t *Tree) KNN(p geom.Point, k int) []Neighbor {
	if t.root == nil || k <= 0 {
		return nil
	}
	pq := &knnQueue{{distSq: t.root.box.MinDistSq(p), node: t.root}}
	result := make([]Neighbor, 0, k)
	for pq.Len() > 0 && len(result) < k {
		it := heap.Pop(pq).(knnItem)
		switch {
		case it.node == nil:
			result = append(result, Neighbor{ID: t.data[it.objIdx].ID, DistSq: it.distSq})
		case it.node.children == nil:
			for i := it.node.lo; i < it.node.hi; i++ {
				heap.Push(pq, knnItem{distSq: t.data[i].MinDistSq(p), objIdx: i})
			}
		default:
			for _, c := range it.node.children {
				heap.Push(pq, knnItem{distSq: c.box.MinDistSq(p), node: c})
			}
		}
	}
	return result
}

// CheckInvariants verifies the R-tree structure: node boxes contain their
// children/objects, leaves partition the data array, and node sizes respect
// capacity. Used by tests.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		if len(t.data) != 0 {
			return errInvariant("nil root with data")
		}
		return nil
	}
	pos := 0
	if err := t.check(t.root, &pos); err != nil {
		return err
	}
	if pos != len(t.data) {
		return errInvariant("leaves do not cover the data array")
	}
	return nil
}

func (t *Tree) check(n *node, pos *int) error {
	if n.children == nil {
		if n.lo != *pos {
			return errInvariant("leaf does not start at expected position")
		}
		if n.hi-n.lo > t.cap || n.hi <= n.lo {
			return errInvariant("leaf size out of bounds")
		}
		for i := n.lo; i < n.hi; i++ {
			if !n.box.Contains(t.data[i].Box) {
				return errInvariant("leaf box does not contain object")
			}
		}
		*pos = n.hi
		return nil
	}
	if len(n.children) > t.cap || len(n.children) == 0 {
		return errInvariant("internal node size out of bounds")
	}
	for _, c := range n.children {
		if !n.box.Contains(c.box) {
			return errInvariant("node box does not contain child box")
		}
		if err := t.check(c, pos); err != nil {
			return err
		}
	}
	return nil
}

type errInvariant string

func (e errInvariant) Error() string { return "rtree: " + string(e) }
