// Package sfc implements the QUASII paper's two one-dimensional baselines
// over the Z-order curve (package zorder), the paper's choice "due to its
// simplicity":
//
//   - Index — the static SFC approach (Sec. 6.1): objects are mapped to
//     Z-order codes during a pre-processing step, fully sorted, and queried
//     through curve-interval probes with binary search.
//   - Cracker — SFCracker (Sec. 3.1): the same mapping, but the sort is
//     replaced by database cracking: each query's curve intervals crack the
//     code array incrementally. The code transformation of the whole dataset
//     happens lazily inside the first query, which is what makes SFCracker's
//     first query the most expensive among the incremental approaches.
//
// Both map an object to the grid cell of its center and therefore rely on
// query extension (half the maximum object extent per dimension) for
// correctness, inheriting the space-oriented partitioning penalties the
// paper analyzes in Sec. 6.2.
package sfc

import (
	"sort"

	"repro/internal/cracktree"
	"repro/internal/geom"
	"repro/internal/zorder"
)

// DefaultMaxIntervals caps the number of curve intervals a single query
// decomposes into. The cap bounds per-query cracking cost at a small
// false-positive price; 0 means exact decomposition.
const DefaultMaxIntervals = 256

// Config controls both SFC variants.
type Config struct {
	// Bits per dimension of the curve grid. Default (0) means 10, the
	// paper's choice (32-bit codes). At most zorder.MaxBitsPerDim (21):
	// three coordinates must fit one 64-bit code, so wider values are
	// clamped to 21.
	Bits uint
	// MaxIntervals caps the per-query curve-interval decomposition.
	// Default (0) means DefaultMaxIntervals; negative means exact.
	MaxIntervals int
	// Universe is the bounding box the grid is laid over. Empty means it is
	// derived from the data.
	Universe geom.Box
}

func (c *Config) defaults(data []geom.Object) {
	if c.Bits == 0 {
		c.Bits = zorder.BitsPerDim
	} else if c.Bits > zorder.MaxBitsPerDim {
		c.Bits = zorder.MaxBitsPerDim
	}
	if c.MaxIntervals == 0 {
		c.MaxIntervals = DefaultMaxIntervals
	} else if c.MaxIntervals < 0 {
		c.MaxIntervals = 0
	}
	if c.Universe.IsEmpty() || c.Universe.Volume() == 0 {
		u := geom.MBB(data)
		if u.IsEmpty() {
			u = geom.Box{Max: geom.Point{1, 1, 1}}
		}
		c.Universe = u
	}
}

// grid maps points to curve cells.
type grid struct {
	universe geom.Box
	bits     uint
	scale    [3]float64
}

func newGrid(universe geom.Box, bits uint) grid {
	g := grid{universe: universe, bits: bits}
	cells := float64(uint64(1) << bits)
	for d := 0; d < geom.Dims; d++ {
		span := universe.Max[d] - universe.Min[d]
		if span <= 0 {
			span = 1
		}
		g.scale[d] = cells / span
	}
	return g
}

func (g grid) cellOf(p geom.Point) [3]uint32 {
	var c [3]uint32
	max := zorder.MaxCoord(g.bits)
	for d := 0; d < geom.Dims; d++ {
		v := (p[d] - g.universe.Min[d]) * g.scale[d]
		switch {
		case v < 0:
			c[d] = 0
		case v >= float64(max):
			c[d] = max
		default:
			c[d] = uint32(v)
		}
	}
	return c
}

func (g grid) codeOf(o *geom.Object) uint64 {
	c := g.cellOf(o.Center())
	return zorder.Encode(c[0], c[1], c[2])
}

type entry struct {
	code uint64
	obj  geom.Object
}

// Index is the static SFC baseline.
type Index struct {
	grid    grid
	entries []entry
	maxExt  geom.Point
	maxIvs  int
}

// New builds the static SFC index: it transforms every object to its Z-order
// code and fully sorts — the pre-processing step whose cost the paper's
// cumulative plots include.
func New(data []geom.Object, cfg Config) *Index {
	cfg.defaults(data)
	ix := &Index{
		grid:   newGrid(cfg.Universe, cfg.Bits),
		maxExt: geom.MaxExtents(data),
		maxIvs: cfg.MaxIntervals,
	}
	ix.entries = make([]entry, len(data))
	for i := range data {
		ix.entries[i] = entry{code: ix.grid.codeOf(&data[i]), obj: data[i]}
	}
	sort.Slice(ix.entries, func(a, b int) bool { return ix.entries[a].code < ix.entries[b].code })
	return ix
}

// Len returns the number of indexed objects.
func (ix *Index) Len() int { return len(ix.entries) }

// Query appends the IDs of all objects intersecting q to out.
func (ix *Index) Query(q geom.Box, out []int32) []int32 {
	if q.IsEmpty() || len(ix.entries) == 0 {
		return out
	}
	lo, hi := extendedCellRange(ix.grid, q, ix.maxExt)
	for _, iv := range zorder.Decompose(lo, hi, ix.grid.bits, ix.maxIvs) {
		i := sort.Search(len(ix.entries), func(k int) bool { return ix.entries[k].code >= iv.Lo })
		for ; i < len(ix.entries) && ix.entries[i].code <= iv.Hi; i++ {
			if ix.entries[i].obj.Intersects(q) {
				out = append(out, ix.entries[i].obj.ID)
			}
		}
	}
	return out
}

// extendedCellRange converts q, extended by half the maximum object extent in
// each dimension (center assignment), to an inclusive cell range.
func extendedCellRange(g grid, q geom.Box, maxExt geom.Point) (lo, hi [3]uint32) {
	var half geom.Point
	for d := 0; d < geom.Dims; d++ {
		half[d] = maxExt[d] / 2
	}
	ext := q.Expand(half)
	return g.cellOf(ext.Min), g.cellOf(ext.Max)
}

// Stats counts the cumulative work done by the Cracker.
type Stats struct {
	Queries         int
	Cracks          int
	CrackedEntries  int64
	Intervals       int64
	EntriesTested   int64
	TransformedData bool // first-query code transformation performed
}

// Cracker is SFCracker: incremental cracking over Z-order codes.
type Cracker struct {
	grid    grid
	data    []geom.Object // held until the first query transforms it
	entries []entry
	tree    cracktree.Tree
	maxExt  geom.Point
	maxIvs  int
	stats   Stats
}

// NewCracker prepares an SFCracker over data. No indexing work happens here:
// even the Z-order transformation is deferred to the first query, exactly as
// the paper accounts it.
func NewCracker(data []geom.Object, cfg Config) *Cracker {
	cfg.defaults(data)
	return &Cracker{
		grid:   newGrid(cfg.Universe, cfg.Bits),
		data:   data,
		maxExt: geom.MaxExtents(data),
		maxIvs: cfg.MaxIntervals,
	}
}

// Len returns the number of indexed objects.
func (c *Cracker) Len() int {
	if c.entries != nil {
		return len(c.entries)
	}
	return len(c.data)
}

// Stats returns a snapshot of the cumulative work counters.
func (c *Cracker) Stats() Stats { return c.stats }

// Query appends the IDs of all objects intersecting q to out, cracking the
// code array on the query's curve intervals as a side effect.
func (c *Cracker) Query(q geom.Box, out []int32) []int32 {
	c.stats.Queries++
	if c.entries == nil {
		// The first query pays for transforming the whole dataset into the
		// one-dimensional domain.
		c.entries = make([]entry, len(c.data))
		for i := range c.data {
			c.entries[i] = entry{code: c.grid.codeOf(&c.data[i]), obj: c.data[i]}
		}
		c.data = nil
		c.stats.TransformedData = true
	}
	if q.IsEmpty() || len(c.entries) == 0 {
		return out
	}
	lo, hi := extendedCellRange(c.grid, q, c.maxExt)
	for _, iv := range zorder.Decompose(lo, hi, c.grid.bits, c.maxIvs) {
		c.stats.Intervals++
		pLo := c.crackAt(iv.Lo)
		pHi := c.crackAt(iv.Hi + 1)
		c.stats.EntriesTested += int64(pHi - pLo)
		for i := pLo; i < pHi; i++ {
			if c.entries[i].obj.Intersects(q) {
				out = append(out, c.entries[i].obj.ID)
			}
		}
	}
	return out
}

// crackAt returns the array position where codes >= code begin, cracking the
// enclosing unsorted segment if this boundary is new.
func (c *Cracker) crackAt(code uint64) int {
	if pos, ok := c.tree.Get(code); ok {
		return pos
	}
	segLo := 0
	if _, pos, ok := c.tree.Floor(code); ok {
		segLo = pos
	}
	segHi := len(c.entries)
	if _, pos, ok := c.tree.Ceiling(code); ok {
		segHi = pos
	}
	mid := segLo
	if segLo < segHi {
		i, j := segLo, segHi-1
		for i <= j {
			for i <= j && c.entries[i].code < code {
				i++
			}
			for i <= j && c.entries[j].code >= code {
				j--
			}
			if i < j {
				c.entries[i], c.entries[j] = c.entries[j], c.entries[i]
				i++
				j--
			}
		}
		mid = i
		c.stats.Cracks++
		c.stats.CrackedEntries += int64(segHi - segLo)
	}
	c.tree.Insert(code, mid)
	return mid
}

// CheckInvariants verifies that every recorded crack boundary correctly
// partitions the entry array. Used by tests.
func (c *Cracker) CheckInvariants() error {
	if c.entries == nil {
		return nil
	}
	var err error
	c.tree.Walk(func(key uint64, pos int) bool {
		for i := 0; i < pos; i++ {
			if c.entries[i].code >= key {
				err = errAt(key, pos, i, c.entries[i].code, true)
				return false
			}
		}
		for i := pos; i < len(c.entries); i++ {
			if c.entries[i].code < key {
				err = errAt(key, pos, i, c.entries[i].code, false)
				return false
			}
		}
		return true
	})
	return err
}

type crackViolation struct {
	key   uint64
	pos   int
	index int
	code  uint64
	left  bool
}

func errAt(key uint64, pos, index int, code uint64, left bool) error {
	return &crackViolation{key: key, pos: pos, index: index, code: code, left: left}
}

func (e *crackViolation) Error() string {
	side := "right"
	if e.left {
		side = "left"
	}
	return "crack boundary violated on " + side + " side"
}
