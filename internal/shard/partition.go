// STR-style spatial partitioning: the same sort-tile-recursive discipline
// the R-tree bulk loader uses, applied once at the top to carve the dataset
// into P contiguous tiles of near-equal cardinality.
//
// The sorts are stable LSD radix argsorts on an order-preserving integer
// image of the representative coordinate, so tiling costs a fixed number of
// linear passes instead of n·log n comparator calls. The rows inside each
// tile stay in sorted order on purpose: a shard's first crack
// (colstore.partitionLower) moves only misplaced rows, so a tile born
// x-sorted makes that first crack nearly free.

package shard

import (
	"math"

	"repro/internal/geom"
)

// partition copies data into at most p spatial parts of near-equal size;
// data itself is never reordered. Tiling cuts by rank (equal object counts),
// not by coordinate, so skewed data still yields balanced shards; fully
// degenerate data (every representative point identical) falls back to
// round-robin assignment, which preserves balance when tiling has nothing to
// sort on. Every returned part is non-empty, except the one part of an empty
// input: an index over no objects still has one (empty) shard, which is what
// its snapshot records and Restore requires.
func partition(data []geom.Object, p int) [][]geom.Object {
	if p > len(data) {
		p = len(data)
	}
	if p <= 1 {
		objs := make([]geom.Object, len(data))
		copy(objs, data)
		return [][]geom.Object{objs}
	}
	if degenerate(data) {
		return roundRobin(data, p)
	}
	// Only the order (4 B/object) outlives strOrder: the rest of the sort
	// scratch is dead before the copy is allocated.
	order, tiles := strOrder(data, p)
	objs := make([]geom.Object, len(data))
	for i, j := range order {
		objs[i] = data[j]
	}
	parts := make([][]geom.Object, len(tiles))
	for i, t := range tiles {
		parts[i] = objs[t.lo:t.hi:t.hi] // three-index: parts never grow into each other
	}
	return parts
}

// center returns the representative coordinate used for tiling: the object's
// center in dimension d (STR's choice; balanced for volumetric objects).
func center(o *geom.Object, d int) float64 { return (o.Min[d] + o.Max[d]) / 2 }

// degenerate reports whether every object shares the same representative
// point, in which case sorting cannot spread them and tiling degrades to an
// arbitrary split with fully overlapping shard boxes.
func degenerate(objs []geom.Object) bool {
	for d := 0; d < geom.Dims; d++ {
		c0 := center(&objs[0], d)
		for i := 1; i < len(objs); i++ {
			if center(&objs[i], d) != c0 {
				return false
			}
		}
	}
	return true
}

// roundRobin deals objects into p parts like cards, keeping sizes within one
// of each other.
func roundRobin(objs []geom.Object, p int) [][]geom.Object {
	parts := make([][]geom.Object, p)
	for i := range objs {
		parts[i%p] = append(parts[i%p], objs[i])
	}
	return parts
}

// span is the position range [lo, hi) of one slab, run or tile in the STR
// order.
type span struct{ lo, hi int }

// strOrder computes the STR layout of data for p ≥ 2 parts without moving
// an object: order lists data positions slab by slab (sorted by x-center),
// each slab run by run (by y-center), each run by z-center, and tiles are
// the rank cuts of that order. Only the last level that cut a range sorts
// it, so each tile's rows end up sorted on that level's dimension.
func strOrder(data []geom.Object, p int) (order []uint32, tiles []span) {
	px, py, pz := factor3(p)
	s := newArgsorter(data)
	s.sort(span{0, len(data)}, 0)
	for _, slab := range cut(span{0, len(data)}, px) {
		for _, run := range s.tile(slab, py, 1) {
			tiles = append(tiles, s.tile(run, pz, 2)...)
		}
	}
	return s.idx, tiles
}

// tile sorts the range by the dimension-d center and cuts it into k parts
// of near-equal size; with nothing to cut it is returned whole, unsorted.
func (s *argsorter) tile(r span, k, d int) []span {
	if k <= 1 || r.hi-r.lo <= 1 {
		return []span{r}
	}
	s.sort(r, d)
	return cut(r, k)
}

// cut splits r into min(k, its length) contiguous spans of near-equal size.
func cut(r span, k int) []span {
	n := r.hi - r.lo
	if k > n {
		k = n
	}
	parts := make([]span, 0, k)
	for i := 0; i < k; i++ {
		parts = append(parts, span{r.lo + i*n/k, r.lo + (i+1)*n/k})
	}
	return parts
}

// Radix digits: six passes of 11 bits cover a 64-bit key, and each pass's
// histogram (2048 counters) stays cache-resident.
const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixPasses  = (64 + radixBits - 1) / radixBits
)

// argsorter builds the STR order as data positions (idx) with a stable LSD
// radix sort. Its scratch is one key per position and a second buffer of
// each: 24 bytes per object, allocated once and reused by every level.
type argsorter struct {
	data          []geom.Object
	idx, idxTmp   []uint32
	keys, keysTmp []uint64
}

// newArgsorter starts from the input order.
func newArgsorter(data []geom.Object) *argsorter {
	n := len(data)
	s := &argsorter{
		data: data,
		idx:  make([]uint32, n), idxTmp: make([]uint32, n),
		keys: make([]uint64, n), keysTmp: make([]uint64, n),
	}
	for i := range s.idx {
		s.idx[i] = uint32(i)
	}
	return s
}

// sort reorders idx[r.lo:r.hi] by the dimension-d center of the objects it
// names. Equal centers keep their order (the sort is stable), so for
// distinct centers the result is exactly that of any comparison sort.
func (s *argsorter) sort(r span, d int) {
	idx, idxTmp := s.idx[r.lo:r.hi], s.idxTmp[r.lo:r.hi]
	keys, keysTmp := s.keys[r.lo:r.hi], s.keysTmp[r.lo:r.hi]
	var counts [radixPasses][radixBuckets]uint32
	for i, j := range idx {
		k := sortKey(center(&s.data[j], d))
		keys[i] = k
		for p := range counts {
			counts[p][k>>(p*radixBits)&(radixBuckets-1)]++
		}
	}
	moved := false
	for p := range counts {
		shift := p * radixBits
		c := &counts[p]
		if c[keys[0]>>shift&(radixBuckets-1)] == uint32(len(keys)) {
			continue // every key has this digit: the pass would not move anything
		}
		var sum uint32
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for i, k := range keys {
			b := k >> shift & (radixBuckets - 1)
			keysTmp[c[b]], idxTmp[c[b]] = k, idx[i]
			c[b]++
		}
		keys, keysTmp = keysTmp, keys
		idx, idxTmp = idxTmp, idx
		moved = !moved
	}
	if moved {
		copy(s.idx[r.lo:r.hi], idx)
	}
}

// sortKey maps a float64 to a uint64 with the same order: negative values
// have all bits flipped, non-negative ones only the sign bit. −0 is folded
// onto +0 first, so the two tie exactly as they do under <.
func sortKey(c float64) uint64 {
	if c == 0 {
		c = 0
	}
	b := math.Float64bits(c)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// factor3 splits p into three factors px ≥ py ≥ pz with px·py·pz = p, as
// balanced as possible (minimal largest factor). 16 → 4·2·2, 8 → 2·2·2,
// primes fall back to p·1·1.
func factor3(p int) (px, py, pz int) {
	px, py, pz = p, 1, 1
	for c := 1; c*c*c <= p; c++ {
		if p%c != 0 {
			continue
		}
		rem := p / c
		for b := c; b*b <= rem; b++ {
			if rem%b != 0 {
				continue
			}
			if a := rem / b; a < px || (a == px && b < py) {
				px, py, pz = a, b, c
			}
		}
	}
	return px, py, pz
}
