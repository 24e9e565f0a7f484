// Package geom provides the 3-d geometric primitives shared by all index
// implementations: points, axis-aligned boxes (minimum bounding boxes),
// intersection and containment tests, and a few helpers for extents and
// volumes.
//
// All coordinates are float64. A Box is defined by its lower (Min) and upper
// (Max) corner, matching the paper's MBB definition lower(b)/upper(b). Two
// sentinel boxes bracket the valid range: EmptyBox (the identity of Extend,
// containing nothing) and UniverseBox (all of space); both use infinities,
// which JSON numbers cannot carry: StringBox is the JSON form of a Box that
// the snapshot manifest and the introspection reports share.
//
// Everything here is value-typed and allocation-free; the hot query kernels
// operate on the columnar lanes of internal/colstore instead and only
// reconstruct these types at API boundaries.
package geom

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Dims is the dimensionality of the spatial domain. The paper (and this
// reproduction) work in 3-d; the constant exists so the slicing logic can be
// written dimension-generically.
const Dims = 3

// Point is a point in 3-d space.
type Point [Dims]float64

// Box is an axis-aligned 3-d box (minimum bounding box). Min holds the lower
// coordinate in each dimension, Max the upper. A valid box has Min[d] <= Max[d]
// for every dimension d.
type Box struct {
	Min Point
	Max Point
}

// Object is a spatial object: a bounding box plus a stable identifier. Index
// implementations reorganize object arrays in place, so query results are
// reported as IDs rather than positions.
type Object struct {
	Box
	ID int32
}

// NewBox returns the box spanning the two corner points, normalizing the
// corners so that Min <= Max holds in every dimension.
func NewBox(a, b Point) Box {
	var box Box
	for d := 0; d < Dims; d++ {
		box.Min[d] = math.Min(a[d], b[d])
		box.Max[d] = math.Max(a[d], b[d])
	}
	return box
}

// BoxAt returns the cube with the given center and side length.
func BoxAt(center Point, side float64) Box {
	var box Box
	h := side / 2
	for d := 0; d < Dims; d++ {
		box.Min[d] = center[d] - h
		box.Max[d] = center[d] + h
	}
	return box
}

// EmptyBox returns the identity element for Extend: a box that contains
// nothing and leaves any box unchanged when merged into it.
func EmptyBox() Box {
	var box Box
	for d := 0; d < Dims; d++ {
		box.Min[d] = math.Inf(1)
		box.Max[d] = math.Inf(-1)
	}
	return box
}

// UniverseBox returns a box covering all of space.
func UniverseBox() Box {
	var box Box
	for d := 0; d < Dims; d++ {
		box.Min[d] = math.Inf(-1)
		box.Max[d] = math.Inf(1)
	}
	return box
}

// IsEmpty reports whether the box contains no points (some Min exceeds the
// corresponding Max).
func (b Box) IsEmpty() bool {
	for d := 0; d < Dims; d++ {
		if b.Min[d] > b.Max[d] {
			return true
		}
	}
	return false
}

// Intersects reports whether b and q share at least one point. Boxes that
// merely touch at a face, edge or corner intersect, matching the paper's
// b ∩ q ≠ ∅ result definition.
func (b Box) Intersects(q Box) bool {
	for d := 0; d < Dims; d++ {
		if b.Min[d] > q.Max[d] || b.Max[d] < q.Min[d] {
			return false
		}
	}
	return true
}

// Contains reports whether b fully contains q.
func (b Box) Contains(q Box) bool {
	for d := 0; d < Dims; d++ {
		if q.Min[d] < b.Min[d] || q.Max[d] > b.Max[d] {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether the point p lies inside b (inclusive bounds).
func (b Box) ContainsPoint(p Point) bool {
	for d := 0; d < Dims; d++ {
		if p[d] < b.Min[d] || p[d] > b.Max[d] {
			return false
		}
	}
	return true
}

// Extend grows b to also cover q and returns the result.
func (b Box) Extend(q Box) Box {
	for d := 0; d < Dims; d++ {
		if q.Min[d] < b.Min[d] {
			b.Min[d] = q.Min[d]
		}
		if q.Max[d] > b.Max[d] {
			b.Max[d] = q.Max[d]
		}
	}
	return b
}

// Intersection returns the overlap of b and q. The result may be empty
// (IsEmpty reports true) when the boxes do not intersect.
func (b Box) Intersection(q Box) Box {
	for d := 0; d < Dims; d++ {
		if q.Min[d] > b.Min[d] {
			b.Min[d] = q.Min[d]
		}
		if q.Max[d] < b.Max[d] {
			b.Max[d] = q.Max[d]
		}
	}
	return b
}

// Center returns the center point of the box.
func (b Box) Center() Point {
	var c Point
	for d := 0; d < Dims; d++ {
		c[d] = (b.Min[d] + b.Max[d]) / 2
	}
	return c
}

// Extent returns the side length of the box in dimension d.
func (b Box) Extent(d int) float64 { return b.Max[d] - b.Min[d] }

// Volume returns the volume of the box; an empty box has volume 0.
func (b Box) Volume() float64 {
	v := 1.0
	for d := 0; d < Dims; d++ {
		side := b.Max[d] - b.Min[d]
		if side <= 0 {
			return 0
		}
		v *= side
	}
	return v
}

// MinDistSq returns the squared minimum distance between the point p and the
// box. It is 0 when p lies inside the box. Used by best-first kNN search.
func (b Box) MinDistSq(p Point) float64 {
	var sum float64
	for d := 0; d < Dims; d++ {
		switch {
		case p[d] < b.Min[d]:
			diff := b.Min[d] - p[d]
			sum += diff * diff
		case p[d] > b.Max[d]:
			diff := p[d] - b.Max[d]
			sum += diff * diff
		}
	}
	return sum
}

// Expand returns b grown by delta[d] on both sides in each dimension.
func (b Box) Expand(delta Point) Box {
	for d := 0; d < Dims; d++ {
		b.Min[d] -= delta[d]
		b.Max[d] += delta[d]
	}
	return b
}

// String implements fmt.Stringer.
func (b Box) String() string {
	return fmt.Sprintf("[%g,%g,%g → %g,%g,%g]",
		b.Min[0], b.Min[1], b.Min[2], b.Max[0], b.Max[1], b.Max[2])
}

// StringBox is a Box whose JSON form spells every coordinate as a string,
// {"min":["0","-Inf",…],"max":[…]}: boxes can legitimately be ±Inf (the
// empty tile of an index built over no objects, the open sides of an
// unrefined slice), which JSON numbers cannot represent, and strconv
// round-trips both the infinities and every finite float64 exactly. It is a
// distinct type rather than methods on Box because Object embeds Box: a
// promoted MarshalJSON would encode an Object without its ID. Convert with
// StringBox(b) and Box(s).
type StringBox Box

// stringBoxJSON is StringBox's wire layout.
type stringBoxJSON struct {
	Min [Dims]string `json:"min"`
	Max [Dims]string `json:"max"`
}

// MarshalJSON implements json.Marshaler.
func (b StringBox) MarshalJSON() ([]byte, error) {
	var s stringBoxJSON
	for d := 0; d < Dims; d++ {
		s.Min[d] = strconv.FormatFloat(b.Min[d], 'g', -1, 64)
		s.Max[d] = strconv.FormatFloat(b.Max[d], 'g', -1, 64)
	}
	return json.Marshal(s)
}

// UnmarshalJSON implements json.Unmarshaler. It refuses NaN coordinates:
// every comparison with NaN is false, so a NaN bound would make a box that
// no query meets and that nothing can extend.
func (b *StringBox) UnmarshalJSON(raw []byte) error {
	var s stringBoxJSON
	if err := json.Unmarshal(raw, &s); err != nil {
		return err
	}
	var out StringBox
	for d := 0; d < Dims; d++ {
		lo, err := strconv.ParseFloat(s.Min[d], 64)
		if err != nil {
			return fmt.Errorf("parsing box min[%d] %q: %w", d, s.Min[d], err)
		}
		hi, err := strconv.ParseFloat(s.Max[d], 64)
		if err != nil {
			return fmt.Errorf("parsing box max[%d] %q: %w", d, s.Max[d], err)
		}
		if math.IsNaN(lo) || math.IsNaN(hi) {
			return fmt.Errorf("box [%d] bounds %q, %q: NaN", d, s.Min[d], s.Max[d])
		}
		out.Min[d], out.Max[d] = lo, hi
	}
	*b = out
	return nil
}

// MBB returns the minimum bounding box of the given objects, or EmptyBox for
// an empty slice.
func MBB(objs []Object) Box {
	box := EmptyBox()
	for i := range objs {
		box = box.Extend(objs[i].Box)
	}
	return box
}

// MaxExtents returns, per dimension, the maximum extent (Max-Min) over all
// objects. Query-extension techniques need this to bound how far an object's
// representative point can be from the query range while still intersecting.
func MaxExtents(objs []Object) Point {
	var ext Point
	for i := range objs {
		for d := 0; d < Dims; d++ {
			if e := objs[i].Max[d] - objs[i].Min[d]; e > ext[d] {
				ext[d] = e
			}
		}
	}
	return ext
}
