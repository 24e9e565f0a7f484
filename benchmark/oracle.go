package main

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/scan"
)

// answer is what a correct response must reduce to: how many base objects
// it names and an order-independent checksum of their IDs. Comparing it
// costs O(result), so every response of every phase is checked.
type answer struct {
	n   uint32
	sum uint64
}

// digest reduces a result to its answer, ignoring IDs at or above base: the
// objects the benchmark's own writer inserts come and go while readers run,
// so only the immutable base data has one right answer.
func digest(ids []int32, base int32) answer {
	var a answer
	for _, id := range ids {
		if id < base {
			a.n++
			a.sum += (uint64(uint32(id)) + 1) * 0x9E3779B97F4A7C15
		}
	}
	return a
}

// oracleCells is the grid resolution per dimension: 64³ cells of ~156
// universe units, a few dozen objects each at the sizes the workloads use.
const oracleCells = 64

// oracle answers range queries over the base data from a uniform grid it
// builds itself, sharing no code with the indexes under test. Scanning the
// whole array per query (internal/scan, the repo's reference) would cost
// O(N) for each of thousands of pool queries — minutes at these sizes — so
// the grid produces the expected answers and internal/scan audits a sample
// of them on every run (see crossCheck).
type oracle struct {
	data  []geom.Object
	start []int32 // CSR offsets per cell, len cells+1
	items []int32 // object indexes, grouped by cell
}

func cellOf(x float64) int {
	c := int(x / dataset.UniverseSide * oracleCells)
	if c < 0 {
		return 0
	}
	if c >= oracleCells {
		return oracleCells - 1
	}
	return c
}

func cellIndex(x, y, z int) int { return (x*oracleCells+y)*oracleCells + z }

// newOracle files every object under each cell its box overlaps.
func newOracle(data []geom.Object) *oracle {
	o := &oracle{data: data, start: make([]int32, oracleCells*oracleCells*oracleCells+1)}
	each := func(b geom.Box, f func(c int)) {
		x0, x1 := cellOf(b.Min[0]), cellOf(b.Max[0])
		y0, y1 := cellOf(b.Min[1]), cellOf(b.Max[1])
		z0, z1 := cellOf(b.Min[2]), cellOf(b.Max[2])
		for x := x0; x <= x1; x++ {
			for y := y0; y <= y1; y++ {
				for z := z0; z <= z1; z++ {
					f(cellIndex(x, y, z))
				}
			}
		}
	}
	for i := range data {
		each(data[i].Box, func(c int) { o.start[c+1]++ })
	}
	for c := 1; c < len(o.start); c++ {
		o.start[c] += o.start[c-1]
	}
	o.items = make([]int32, o.start[len(o.start)-1])
	fill := append([]int32(nil), o.start[:len(o.start)-1]...)
	for i := range data {
		each(data[i].Box, func(c int) {
			o.items[fill[c]] = int32(i)
			fill[c]++
		})
	}
	return o
}

// answer computes the expected answer of q. An object filed under several
// of the cells q overlaps is counted only in the cell that holds the lowest
// corner of its intersection with q, so nothing needs de-duplicating.
func (o *oracle) answer(q geom.Box) answer {
	var a answer
	x0, x1 := cellOf(q.Min[0]), cellOf(q.Max[0])
	y0, y1 := cellOf(q.Min[1]), cellOf(q.Max[1])
	z0, z1 := cellOf(q.Min[2]), cellOf(q.Max[2])
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			for z := z0; z <= z1; z++ {
				c := cellIndex(x, y, z)
				for _, i := range o.items[o.start[c]:o.start[c+1]] {
					b := &o.data[i].Box
					if !b.Intersects(q) {
						continue
					}
					if cellOf(math.Max(b.Min[0], q.Min[0])) != x ||
						cellOf(math.Max(b.Min[1], q.Min[1])) != y ||
						cellOf(math.Max(b.Min[2], q.Min[2])) != z {
						continue
					}
					a.n++
					a.sum += (uint64(uint32(o.data[i].ID)) + 1) * 0x9E3779B97F4A7C15
				}
			}
		}
	}
	return a
}

// crossCheck audits the grid against internal/scan, the repository's
// reference implementation, on an evenly spaced sample of the pool.
func (o *oracle) crossCheck(pool []geom.Box, want []answer, sample int) error {
	ref := scan.New(o.data)
	step := len(pool) / sample
	if step < 1 {
		step = 1
	}
	var buf []int32
	for i := 0; i < len(pool); i += step {
		buf = ref.Query(pool[i], buf[:0])
		if got := digest(buf, math.MaxInt32); got != want[i] {
			return fmt.Errorf("oracle disagrees with internal/scan on pool query %d: grid (%d,%#x) scan (%d,%#x)",
				i, want[i].n, want[i].sum, got.n, got.sum)
		}
	}
	return nil
}
