// Package scan provides the full-scan baseline: every query tests every
// object. It is both the floor all indexes are measured against and the
// ground-truth oracle for correctness tests.
package scan

import "repro/internal/geom"

// Index answers range queries by scanning the whole dataset.
type Index struct {
	data []geom.Object
}

// New returns a scan "index" over data. The data is not copied and never
// reorganized.
func New(data []geom.Object) *Index { return &Index{data: data} }

// Len returns the number of objects.
func (ix *Index) Len() int { return len(ix.data) }

// Query appends the IDs of all objects intersecting q to out.
func (ix *Index) Query(q geom.Box, out []int32) []int32 {
	for i := range ix.data {
		if ix.data[i].Intersects(q) {
			out = append(out, ix.data[i].ID)
		}
	}
	return out
}
