// Package grid implements the uniform-grid baseline of the QUASII paper with
// both object-assignment strategies analyzed in Sec. 6.2:
//
//   - query extension (GridQueryExt): an object is assigned to the single
//     cell containing its center; queries are extended by half the maximum
//     object extent per dimension to stay correct (Stefanakis et al.).
//   - replication (GridReplication): an object is assigned to every cell its
//     box overlaps; queries must de-duplicate results.
//
// The grid resolution (partitions per dimension) is the configuration knob
// whose data-dependence the paper demonstrates in Fig. 6b.
package grid

import (
	"repro/internal/geom"
)

// Assignment selects the object-to-cell assignment strategy.
type Assignment int

const (
	// QueryExtension assigns by center and extends queries (no duplicates).
	QueryExtension Assignment = iota
	// Replication assigns to all overlapping cells (duplicates possible).
	Replication
)

// Config controls grid construction.
type Config struct {
	// Partitions is the number of cells per dimension. The paper sweeps this
	// and uses 100 (uniform data) / 220 (neuro data). Values < 1 mean 64.
	Partitions int
	// Assign selects the assignment strategy. Default QueryExtension.
	Assign Assignment
	// Universe is the box the grid covers. Empty means derived from data.
	Universe geom.Box
}

// DefaultPartitions is the fallback grid resolution.
const DefaultPartitions = 64

// Index is a uniform grid over 3-d boxes.
type Index struct {
	data     []geom.Object
	universe geom.Box
	parts    int
	scale    [3]float64
	cells    [][]int32 // object indices per cell
	assign   Assignment
	maxExt   geom.Point
	// visited stamps for replication de-duplication (epoch per object).
	stamp      []uint32
	curEpoch   uint32
	replicated int64 // total cell entries (>= len(data) under replication)
}

// New builds a uniform grid index over data. The input slice is referenced,
// not copied, and never reorganized.
func New(data []geom.Object, cfg Config) *Index {
	if cfg.Partitions < 1 {
		cfg.Partitions = DefaultPartitions
	}
	if cfg.Universe.IsEmpty() || cfg.Universe.Volume() == 0 {
		u := geom.MBB(data)
		if u.IsEmpty() {
			u = geom.Box{Max: geom.Point{1, 1, 1}}
		}
		cfg.Universe = u
	}
	ix := &Index{
		data:     data,
		universe: cfg.Universe,
		parts:    cfg.Partitions,
		assign:   cfg.Assign,
		maxExt:   geom.MaxExtents(data),
	}
	for d := 0; d < geom.Dims; d++ {
		span := ix.universe.Max[d] - ix.universe.Min[d]
		if span <= 0 {
			span = 1
		}
		ix.scale[d] = float64(ix.parts) / span
	}
	p := ix.parts
	ix.cells = make([][]int32, p*p*p)
	switch ix.assign {
	case Replication:
		ix.stamp = make([]uint32, len(data))
		for i := range data {
			lo := ix.cellCoords(data[i].Min)
			hi := ix.cellCoords(data[i].Max)
			for x := lo[0]; x <= hi[0]; x++ {
				for y := lo[1]; y <= hi[1]; y++ {
					for z := lo[2]; z <= hi[2]; z++ {
						c := ix.cellIndex(x, y, z)
						ix.cells[c] = append(ix.cells[c], int32(i))
						ix.replicated++
					}
				}
			}
		}
	default:
		for i := range data {
			cc := ix.cellCoords(data[i].Center())
			c := ix.cellIndex(cc[0], cc[1], cc[2])
			ix.cells[c] = append(ix.cells[c], int32(i))
		}
	}
	return ix
}

// cellCoords maps a point to clamped integer cell coordinates.
func (ix *Index) cellCoords(p geom.Point) [3]int {
	var c [3]int
	for d := 0; d < geom.Dims; d++ {
		v := int((p[d] - ix.universe.Min[d]) * ix.scale[d])
		if v < 0 {
			v = 0
		}
		if v >= ix.parts {
			v = ix.parts - 1
		}
		c[d] = v
	}
	return c
}

func (ix *Index) cellIndex(x, y, z int) int {
	return (z*ix.parts+y)*ix.parts + x
}

// Len returns the number of indexed objects.
func (ix *Index) Len() int { return len(ix.data) }

// Partitions returns the configured cells per dimension.
func (ix *Index) Partitions() int { return ix.parts }

// ReplicatedEntries returns the total number of cell entries. Under
// replication this exceeds Len(); the ratio is the replication factor the
// paper blames for GridReplication's slowdown.
func (ix *Index) ReplicatedEntries() int64 {
	if ix.assign == Replication {
		return ix.replicated
	}
	return int64(len(ix.data))
}

// Query appends the IDs of all objects intersecting q to out.
func (ix *Index) Query(q geom.Box, out []int32) []int32 {
	if q.IsEmpty() || len(ix.data) == 0 {
		return out
	}
	search := q
	if ix.assign == QueryExtension {
		var half geom.Point
		for d := 0; d < geom.Dims; d++ {
			half[d] = ix.maxExt[d] / 2
		}
		search = q.Expand(half)
	}
	lo := ix.cellCoords(search.Min)
	hi := ix.cellCoords(search.Max)
	if ix.assign == Replication {
		ix.curEpoch++
		if ix.curEpoch == 0 { // epoch wrap: reset stamps
			for i := range ix.stamp {
				ix.stamp[i] = 0
			}
			ix.curEpoch = 1
		}
	}
	for z := lo[2]; z <= hi[2]; z++ {
		for y := lo[1]; y <= hi[1]; y++ {
			for x := lo[0]; x <= hi[0]; x++ {
				for _, idx := range ix.cells[ix.cellIndex(x, y, z)] {
					if ix.assign == Replication {
						if ix.stamp[idx] == ix.curEpoch {
							continue
						}
						ix.stamp[idx] = ix.curEpoch
					}
					if ix.data[idx].Intersects(q) {
						out = append(out, ix.data[idx].ID)
					}
				}
			}
		}
	}
	return out
}

// CandidateCount returns how many cell entries a query for q would inspect —
// the "objects considered for intersection" metric of Fig. 6a.
func (ix *Index) CandidateCount(q geom.Box) int64 {
	if q.IsEmpty() || len(ix.data) == 0 {
		return 0
	}
	search := q
	if ix.assign == QueryExtension {
		var half geom.Point
		for d := 0; d < geom.Dims; d++ {
			half[d] = ix.maxExt[d] / 2
		}
		search = q.Expand(half)
	}
	lo := ix.cellCoords(search.Min)
	hi := ix.cellCoords(search.Max)
	var n int64
	for z := lo[2]; z <= hi[2]; z++ {
		for y := lo[1]; y <= hi[1]; y++ {
			for x := lo[0]; x <= hi[0]; x++ {
				n += int64(len(ix.cells[ix.cellIndex(x, y, z)]))
			}
		}
	}
	return n
}
