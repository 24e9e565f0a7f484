// Package zorder implements the Z-order (Morton) space-filling curve, the one
// curve of the SFC and SFCracker baselines: 3-d cell coordinates with a
// configurable number of bits per dimension (the paper uses 10, i.e. 32-bit
// codes), plus the decomposition of a 3-d cell range into the minimal set of
// curve intervals that exactly cover it. The decomposition is the
// octant-recursion equivalent of the Tropf–Herzog BIGMIN technique: it yields
// intervals fully contained in the query range, eliminating the
// false-positive explosion of a naive (code_lo, code_hi) transformation
// (paper Fig. 1).
package zorder

// BitsPerDim is the default number of bits per dimension (the paper's
// trade-off between memory and precision).
const BitsPerDim = 10

// MaxBitsPerDim is the widest grid a code can hold: three 21-bit coordinates
// fill 63 bits of a uint64. Encode ignores coordinate bits above it.
const MaxBitsPerDim = 21

// MaxCoord returns the largest cell coordinate for the given bit width.
func MaxCoord(bits uint) uint32 { return 1<<bits - 1 }

// spread3 spaces the low 21 bits of v three apart: bit i moves to bit 3i.
func spread3(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// compact3 inverts spread3.
func compact3(v uint64) uint64 {
	v &= 0x1249249249249249
	v = (v | v>>2) & 0x10c30c30c30c30c3
	v = (v | v>>4) & 0x100f00f00f00f00f
	v = (v | v>>8) & 0x1f0000ff0000ff
	v = (v | v>>16) & 0x1f00000000ffff
	v = (v | v>>32) & 0x1fffff
	return v
}

// Encode interleaves three cell coordinates into a Morton code. Bit d of each
// coordinate lands at bit 3d+dim: x occupies bits 0,3,6,…, y bits 1,4,7,…,
// z bits 2,5,8,….
func Encode(x, y, z uint32) uint64 {
	return spread3(uint64(x)) | spread3(uint64(y))<<1 | spread3(uint64(z))<<2
}

// Decode inverts Encode.
func Decode(code uint64) (x, y, z uint32) {
	return uint32(compact3(code)), uint32(compact3(code >> 1)), uint32(compact3(code >> 2))
}

// Interval is an inclusive range [Lo, Hi] of Morton codes.
type Interval struct {
	Lo, Hi uint64
}

// Decompose returns the sorted, merged list of curve intervals that exactly
// cover the 3-d cell range [lo, hi] (inclusive per dimension) on a curve with
// the given bits per dimension.
//
// maxIntervals > 0 caps the output size: when an octant cannot be descended
// into without exceeding the cap, its whole curve range is emitted even
// though it only partially overlaps the query. Callers filter candidates
// against the original query anyway, so the cap trades false positives for
// fewer intervals (and fewer cracks in SFCracker).
func Decompose(lo, hi [3]uint32, bits uint, maxIntervals int) []Interval {
	for d := 0; d < 3; d++ {
		if lo[d] > hi[d] {
			return nil
		}
	}
	d := decomposer{qlo: lo, qhi: hi, cap: maxIntervals}
	d.walk(bits, 0, [3]uint32{0, 0, 0})
	return d.out
}

type decomposer struct {
	qlo, qhi [3]uint32
	out      []Interval
	cap      int
}

// walk visits the octree node whose cube has origin at the given cell and
// side 2^level, with Morton-code prefix `prefix` (the node covers codes
// [prefix<<3level, (prefix+1)<<3level − 1]).
func (d *decomposer) walk(level uint, prefix uint64, origin [3]uint32) {
	size := uint32(1) << level
	// Disjoint?
	for dim := 0; dim < 3; dim++ {
		if origin[dim] > d.qhi[dim] || origin[dim]+size-1 < d.qlo[dim] {
			return
		}
	}
	// Fully contained, leaf cell, or capped: emit the node's whole range.
	contained := true
	for dim := 0; dim < 3; dim++ {
		if origin[dim] < d.qlo[dim] || origin[dim]+size-1 > d.qhi[dim] {
			contained = false
			break
		}
	}
	if contained || level == 0 || (d.cap > 0 && len(d.out) >= d.cap) {
		lo := prefix << (3 * level)
		hi := lo + (uint64(1)<<(3*level) - 1)
		// Merge with the previous interval when adjacent (walk order is
		// curve order, so merging is a constant-time append-side check).
		if n := len(d.out); n > 0 && d.out[n-1].Hi+1 == lo {
			d.out[n-1].Hi = hi
			return
		}
		d.out = append(d.out, Interval{Lo: lo, Hi: hi})
		return
	}
	half := size >> 1
	for child := uint64(0); child < 8; child++ {
		co := origin
		if child&1 != 0 {
			co[0] += half
		}
		if child&2 != 0 {
			co[1] += half
		}
		if child&4 != 0 {
			co[2] += half
		}
		d.walk(level-1, prefix<<3|child, co)
	}
}
