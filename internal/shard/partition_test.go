package shard

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/telemetry"
)

// comparatorPartition is the tiling partition computed before the radix
// argsort: copy, then sort.Slice by center at every level. It is the
// reference TestPartitionMatchesComparatorSort holds the argsort to.
func comparatorPartition(data []geom.Object, p int) [][]geom.Object {
	objs := append([]geom.Object(nil), data...)
	if p > len(objs) {
		p = len(objs)
	}
	if p <= 1 {
		return [][]geom.Object{objs}
	}
	if degenerate(objs) {
		return roundRobin(objs, p)
	}
	tileSort := func(objs []geom.Object, k, d int) [][]geom.Object {
		if k <= 1 || len(objs) <= 1 {
			return [][]geom.Object{objs}
		}
		sort.Slice(objs, func(i, j int) bool { return center(&objs[i], d) < center(&objs[j], d) })
		n := len(objs)
		k = min(k, n)
		parts := make([][]geom.Object, 0, k)
		for i := 0; i < k; i++ {
			lo, hi := i*n/k, (i+1)*n/k
			parts = append(parts, objs[lo:hi:hi])
		}
		return parts
	}
	px, py, pz := factor3(p)
	var parts [][]geom.Object
	for _, slab := range tileSort(objs, px, 0) {
		for _, run := range tileSort(slab, py, 1) {
			for _, t := range tileSort(run, pz, 2) {
				if len(t) > 0 {
					parts = append(parts, t)
				}
			}
		}
	}
	return parts
}

// distinctObjects returns n objects whose centers are pairwise distinct in
// every dimension (a shuffled rank per dimension, centred on zero so half
// the coordinates are negative) with random extents.
func distinctObjects(n int, seed int64) []geom.Object {
	rng := rand.New(rand.NewSource(seed))
	var rank [geom.Dims][]int
	for d := range rank {
		rank[d] = rng.Perm(n)
	}
	objs := make([]geom.Object, n)
	for i := range objs {
		var c geom.Point
		for d := range c {
			c[d] = float64(rank[d][i]) - float64(n)/2 + 0.25
		}
		objs[i] = geom.Object{Box: geom.BoxAt(c, rng.Float64()), ID: int32(i)}
	}
	return objs
}

// tiedObjects returns n point objects drawn from few distinct geometries —
// each repeated under several IDs — on a grid with negative coordinates and
// zeros stored as −0 or +0 at random, so keys tie within every group while
// the groups themselves stay distinct in every dimension.
func tiedObjects(n int, seed int64) []geom.Object {
	rng := rand.New(rand.NewSource(seed))
	groups := n/5 + 1
	var rank [geom.Dims][]int
	for d := range rank {
		rank[d] = rng.Perm(groups)
	}
	objs := make([]geom.Object, n)
	for i := range objs {
		g := rng.Intn(groups)
		var c geom.Point
		for d := range c {
			c[d] = float64(rank[d][g] - groups/2)
			if c[d] == 0 && rng.Intn(2) == 0 {
				c[d] = math.Copysign(0, -1)
			}
		}
		objs[i] = geom.Object{Box: geom.NewBox(c, c), ID: int32(i)}
	}
	return objs
}

// sameBits reports whether two object slices are byte-identical (−0 and +0
// differ, unlike under ==).
func sameBits(a, b []geom.Object) bool {
	if len(a) != len(b) {
		return false
	}
	size := len(a) * int(unsafe.Sizeof(geom.Object{}))
	if size == 0 {
		return true
	}
	ab := unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), size)
	bb := unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), size)
	return string(ab) == string(bb)
}

// TestPartitionMatchesComparatorSort holds the radix argsort tiling to the
// comparison-sort tiling it replaced: for distinct keys the same objects in
// the same order in every part (so every crack downstream is unchanged); for
// tied keys, ±0 and negative coordinates the same geometry at every position
// and the same tile boxes, every object exactly once. Tiling is
// deterministic and never reorders the caller's slice.
func TestPartitionMatchesComparatorSort(t *testing.T) {
	if sortKey(math.Copysign(0, -1)) != sortKey(0) {
		t.Fatal("sortKey separates −0 from +0")
	}
	for _, n := range []int{0, 1, 2, 7, 300, 10000} {
		for _, p := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
			for _, in := range []struct {
				name string
				data []geom.Object
			}{
				{"distinct", distinctObjects(n, int64(n*31+p))},
				{"tied", tiedObjects(n, int64(n*37+p))},
			} {
				t.Run(fmt.Sprintf("%s/n=%d/p=%d", in.name, n, p), func(t *testing.T) {
					before := append([]geom.Object(nil), in.data...)
					got := partition(in.data, p)
					if !sameBits(in.data, before) {
						t.Fatal("partition reordered or modified its input")
					}
					if again := partition(in.data, p); !sameParts(got, again) {
						t.Fatal("two partitions of one input differ")
					}
					want := comparatorPartition(in.data, p)
					if len(got) != len(want) {
						t.Fatalf("%d parts, want %d", len(got), len(want))
					}
					seen := make(map[int32]bool, n)
					for i := range got {
						if len(got[i]) != len(want[i]) {
							t.Fatalf("part %d: %d objects, want %d", i, len(got[i]), len(want[i]))
						}
						if geom.MBB(got[i]) != geom.MBB(want[i]) {
							t.Fatalf("part %d: box %v, want %v", i, geom.MBB(got[i]), geom.MBB(want[i]))
						}
						for j, o := range got[i] {
							w := want[i][j]
							if in.name == "distinct" && o.ID != w.ID {
								t.Fatalf("part %d row %d: id %d, want %d", i, j, o.ID, w.ID)
							}
							if o.Box != w.Box {
								t.Fatalf("part %d row %d: box %v, want %v", i, j, o.Box, w.Box)
							}
							if seen[o.ID] {
								t.Fatalf("id %d placed twice", o.ID)
							}
							seen[o.ID] = true
						}
					}
					if len(seen) != n {
						t.Fatalf("parts hold %d objects, want %d", len(seen), n)
					}
				})
			}
		}
	}
}

// sameParts reports whether two partitions are byte-identical part by part.
func sameParts(a, b [][]geom.Object) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestPartitionBoundedAllocation guards peak_rss_mb: tiling allocates the
// one copy of the objects plus the argsort's 24 bytes per object, whatever
// the nesting depth; the slack covers the part headers only.
func TestPartitionBoundedAllocation(t *testing.T) {
	const n, slack = 1 << 20, 16 << 10
	data := dataset.Uniform(n, 5)
	limit := uint64(n)*uint64(unsafe.Sizeof(geom.Object{})) + 24*n + slack
	for _, p := range []int{2, 16} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		parts := partition(data, p)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("partition(%d objects, %d) allocated %d bytes, want ≤ %d", n, p, got, limit)
		}
		runtime.KeepAlive(parts)
	}
}

// TestBuildSecondsGauge: the build-stage gauge reports New's stages and
// reads 0 on a restored index, which built nothing.
func TestBuildSecondsGauge(t *testing.T) {
	scrape := func(ix *Index) string {
		reg := telemetry.NewRegistry()
		ix.Instrument(reg)
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	ix := New(dataset.Uniform(5000, 4), Config{Shards: 4})
	if bt := ix.BuildTimes(); bt.Partition <= 0 || bt.Lanes <= 0 {
		t.Fatalf("BuildTimes = %+v, want both stages timed", bt)
	}
	text := scrape(ix)
	for _, stage := range []string{"partition", "lanes"} {
		if !strings.Contains(text, `quasii_shard_build_seconds{stage="`+stage+`"}`) {
			t.Fatalf("scrape missing the %s stage:\n%s", stage, text)
		}
	}

	dir := t.TempDir()
	if err := ix.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	text = scrape(restored)
	for _, stage := range []string{"partition", "lanes"} {
		if line := `quasii_shard_build_seconds{stage="` + stage + `"} 0`; !strings.Contains(text, line+"\n") {
			t.Fatalf("restored index: scrape lacks %q:\n%s", line, text)
		}
	}
}

// BenchmarkShardNew measures the whole build — tiling plus per-shard lanes —
// at the repository benchmark's embed_parallel shape: 2 M uniform objects
// into 2 shards.
func BenchmarkShardNew(b *testing.B) {
	const n = 2_000_000
	data := dataset.Uniform(n, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(data, Config{Shards: 2})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/object")
}
