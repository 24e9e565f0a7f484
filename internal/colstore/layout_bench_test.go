package colstore

// Layout-comparison benchmarks: the same cracking and scanning kernels run
// against the columnar table and against a reference array-of-structs
// implementation (the seed's layout), inside one binary. Because both
// variants run back to back they are immune to machine drift, which makes
// them the durable record of what the SoA layout buys on this hardware —
// the numbers quoted in the PR 3 line of CHANGES.md come from here and from
// the core microbenchmarks.

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// aosPartition replicates the seed's AoS cracking kernel (two-pointer
// partition with in-pass bounds tracking over []geom.Object).
func aosPartition(data []geom.Object, lo, hi, dim int, pivot float64) (int, Bounds, Bounds) {
	left := Bounds{Min: math.Inf(1), Max: math.Inf(-1)}
	right := Bounds{Min: math.Inf(1), Max: math.Inf(-1)}
	add := func(b *Bounds, o *geom.Object) {
		if o.Min[dim] < b.Min {
			b.Min = o.Min[dim]
		}
		if o.Max[dim] > b.Max {
			b.Max = o.Max[dim]
		}
	}
	i, j := lo, hi-1
	for i <= j {
		for i <= j && data[i].Min[dim] < pivot {
			add(&left, &data[i])
			i++
		}
		for i <= j && data[j].Min[dim] >= pivot {
			add(&right, &data[j])
			j--
		}
		if i < j {
			data[i], data[j] = data[j], data[i]
			add(&left, &data[i])
			add(&right, &data[j])
			i++
			j--
		}
	}
	return i, left, right
}

// aosScan replicates the seed's AoS leaf scan (Box.Intersects per object).
func aosScan(data []geom.Object, q geom.Box, out []int32) []int32 {
	for j := range data {
		if data[j].Intersects(q) {
			out = append(out, int32(j))
		}
	}
	return out
}

func benchPartitionSoA(b *testing.B, n int) {
	objs := dataset.Uniform(n, 42)
	t := FromObjects(objs)
	t.Partition(0, n, 0, 5000, KeyLower) // warm the scratch buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t.Reload(objs)
		b.StartTimer()
		t.Partition(0, n, 0, 5000, KeyLower)
	}
}

func benchPartitionAoS(b *testing.B, n int) {
	objs := dataset.Uniform(n, 42)
	data := make([]geom.Object, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(data, objs)
		b.StartTimer()
		aosPartition(data, 0, n, 0, 5000)
	}
}

func BenchmarkLayoutPartitionSoA1M(b *testing.B)   { benchPartitionSoA(b, 1<<20) }
func BenchmarkLayoutPartitionAoS1M(b *testing.B)   { benchPartitionAoS(b, 1<<20) }
func BenchmarkLayoutPartitionSoA128k(b *testing.B) { benchPartitionSoA(b, 1<<17) }
func BenchmarkLayoutPartitionAoS128k(b *testing.B) { benchPartitionAoS(b, 1<<17) }

func BenchmarkLayoutScanSoA(b *testing.B) {
	const n = 1 << 17
	objs := dataset.Uniform(n, 43)
	t := FromObjects(objs)
	q := geom.BoxAt(geom.Point{5000, 5000, 5000}, 2000)
	var out []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = t.ScanIntersect(0, n, q, out[:0])
	}
	if len(out) == 0 {
		b.Fatal("query matched nothing")
	}
}

func BenchmarkLayoutScanAoS(b *testing.B) {
	const n = 1 << 17
	objs := dataset.Uniform(n, 43)
	q := geom.BoxAt(geom.Point{5000, 5000, 5000}, 2000)
	var out []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = aosScan(objs, q, out[:0])
	}
	if len(out) == 0 {
		b.Fatal("query matched nothing")
	}
}
