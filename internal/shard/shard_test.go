package shard

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/scan"
	"repro/internal/workload"
)

func sortedIDs(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQueryMatchesScan checks sequential correctness against the scan oracle
// for several shard counts, including counts exceeding the core count.
func TestQueryMatchesScan(t *testing.T) {
	data := dataset.Uniform(4000, 7)
	oracle := scan.New(data)
	queries := append(
		workload.Uniform(dataset.Universe(), 60, 1e-3, 11),
		workload.Uniform(dataset.Universe(), 20, 1e-1, 12)...)
	// A query covering everything and one covering nothing.
	queries = append(queries, geom.MBB(data),
		geom.NewBox(geom.Point{-2000, -2000, -2000}, geom.Point{-1000, -1000, -1000}))

	for _, p := range []int{1, 2, 4, 7, 16, 64} {
		t.Run(fmt.Sprintf("shards=%d", p), func(t *testing.T) {
			ix := New(data, Config{Shards: p})
			if got := ix.Len(); got != len(data) {
				t.Fatalf("Len = %d, want %d", got, len(data))
			}
			if ix.NumShards() > p {
				t.Fatalf("NumShards = %d > requested %d", ix.NumShards(), p)
			}
			var got, want []int32
			for qi, q := range queries {
				got = sortedIDs(ix.Query(q, got[:0]))
				want = sortedIDs(oracle.Query(q, want[:0]))
				if !equalIDs(got, want) {
					t.Fatalf("query %d: got %d IDs, want %d", qi, len(got), len(want))
				}
			}
		})
	}
}

// TestConcurrentMixedWorkload fires concurrent mixed Query/QueryBatch/Stats
// traffic at the sharded index for shard counts {1, 4, 16} and asserts every
// result set matches the Scan baseline. Run with -race.
func TestConcurrentMixedWorkload(t *testing.T) {
	data := dataset.Uniform(6000, 21)
	for _, p := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", p), func(t *testing.T) {
			ix := New(data, Config{Shards: p, SubConfig: core.Config{Tau: 32}})
			oracle := scan.New(data)

			const goroutines = 8
			var wg sync.WaitGroup
			errs := make(chan string, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					// Mix of point-ish queries, wide queries, and batches.
					small := workload.Uniform(dataset.Universe(), 30, 1e-4, seed)
					wide := workload.Uniform(dataset.Universe(), 6, 1e-1, seed+100)
					var got, want []int32
					for _, q := range append(small, wide...) {
						got = sortedIDs(ix.Query(q, got[:0]))
						want = sortedIDs(oracle.Query(q, want[:0]))
						if !equalIDs(got, want) {
							errs <- fmt.Sprintf("seed %d: got %d IDs, want %d", seed, len(got), len(want))
							return
						}
					}
					batch := workload.Uniform(dataset.Universe(), 25, 1e-3, seed+200)
					for qi, ids := range ix.QueryBatch(batch) {
						got = sortedIDs(ids)
						want = sortedIDs(oracle.Query(batch[qi], want[:0]))
						if !equalIDs(got, want) {
							errs <- fmt.Sprintf("seed %d batch %d: got %d IDs, want %d", seed, qi, len(got), len(want))
							return
						}
					}
					_ = ix.Stats() // exercise cross-shard locking under load
				}(int64(g) + 1)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}

			st := ix.Stats()
			if st.Objects != len(data) {
				t.Errorf("Stats.Objects = %d, want %d", st.Objects, len(data))
			}
			if st.Shards != ix.NumShards() {
				t.Errorf("Stats.Shards = %d, want %d", st.Shards, ix.NumShards())
			}
			if st.Core.Queries == 0 {
				t.Error("aggregated core stats recorded no queries")
			}
		})
	}
}

// TestDegenerateData exercises the round-robin fallback: every object sits at
// the same point, so STR tiling has nothing to sort on.
func TestDegenerateData(t *testing.T) {
	var data []geom.Object
	for i := 0; i < 500; i++ {
		data = append(data, geom.Object{Box: geom.BoxAt(geom.Point{50, 50, 50}, 1), ID: int32(i)})
	}
	ix := New(data, Config{Shards: 8})
	if got := ix.NumShards(); got != 8 {
		t.Fatalf("NumShards = %d, want 8", got)
	}
	st := ix.Stats()
	if st.MaxShardLen-st.MinShardLen > 1 {
		t.Errorf("round-robin imbalance: min %d max %d", st.MinShardLen, st.MaxShardLen)
	}
	got := sortedIDs(ix.Query(geom.BoxAt(geom.Point{50, 50, 50}, 2), nil))
	if len(got) != len(data) {
		t.Fatalf("query hit %d objects, want %d", len(got), len(data))
	}
}

// TestSmallAndEmptyData: with more shards requested than objects, the shard
// count clamps to one per object — and to one empty shard for no objects —
// the index answers queries, and an insert outside every tile (even the
// empty tile of n = 0) joins a shard and is found.
func TestSmallAndEmptyData(t *testing.T) {
	far := geom.Object{Box: geom.BoxAt(geom.Point{-5000, -5000, -5000}, 1), ID: 777}
	for _, n := range []int{0, 1, 2, 3} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ix := New(dataset.Uniform(n, 9), Config{Shards: 16})
			if got, want := ix.NumShards(), max(n, 1); got != want {
				t.Fatalf("NumShards = %d, want %d", got, want)
			}
			if got := ix.Len(); got != n {
				t.Fatalf("Len = %d, want %d", got, n)
			}
			if got := ix.Query(geom.UniverseBox(), nil); len(got) != n {
				t.Fatalf("universe query returned %d IDs, want %d", len(got), n)
			}
			if got := ix.QueryBatch([]geom.Box{geom.UniverseBox()}); len(got) != 1 || len(got[0]) != n {
				t.Fatalf("universe batch returned %v, want %d IDs", got, n)
			}
			if err := ix.Insert(far); err != nil {
				t.Fatal(err)
			}
			if st := ix.Stats(); st.Objects != n+1 || st.Shards != max(n, 1) {
				t.Fatalf("after insert: %d objects in %d shards; want %d in %d", st.Objects, st.Shards, n+1, max(n, 1))
			}
			if got := ix.Query(far.Box, nil); len(got) != 1 || got[0] != far.ID {
				t.Fatalf("query at the inserted object = %v, want [%d]", got, far.ID)
			}
		})
	}
}

// TestPartitionBalance checks the STR tiling produces shards of near-equal
// cardinality on uniform data and covers all objects exactly once.
func TestPartitionBalance(t *testing.T) {
	data := dataset.Uniform(8000, 13)
	parts := partition(data, 16)
	if len(parts) != 16 {
		t.Fatalf("got %d parts, want 16", len(parts))
	}
	seen := make(map[int32]int)
	total := 0
	for _, part := range parts {
		if len(part) == 0 {
			t.Fatal("empty part")
		}
		total += len(part)
		for _, o := range part {
			seen[o.ID]++
		}
	}
	if total != len(data) || len(seen) != len(data) {
		t.Fatalf("parts cover %d objects (%d unique), want %d", total, len(seen), len(data))
	}
	want := len(data) / 16
	for i, part := range parts {
		if len(part) < want/2 || len(part) > want*2 {
			t.Errorf("part %d has %d objects, want ~%d", i, len(part), want)
		}
	}
}

func TestFactor3(t *testing.T) {
	cases := []struct{ p, x, y, z int }{
		{1, 1, 1, 1}, {2, 2, 1, 1}, {4, 2, 2, 1}, {8, 2, 2, 2},
		{16, 4, 2, 2}, {12, 3, 2, 2}, {7, 7, 1, 1}, {27, 3, 3, 3},
	}
	for _, c := range cases {
		x, y, z := factor3(c.p)
		if x != c.x || y != c.y || z != c.z {
			t.Errorf("factor3(%d) = %d,%d,%d want %d,%d,%d", c.p, x, y, z, c.x, c.y, c.z)
		}
		if x*y*z != c.p {
			t.Errorf("factor3(%d) does not multiply back", c.p)
		}
	}
}

// TestWorkerBound: a single-worker pool still answers multi-shard queries.
func TestWorkerBound(t *testing.T) {
	data := dataset.Uniform(3000, 17)
	ix := New(data, Config{Shards: 16, Workers: 1})
	oracle := scan.New(data)
	q := geom.MBB(data) // overlaps every shard
	got, want := sortedIDs(ix.Query(q, nil)), sortedIDs(oracle.Query(q, nil))
	if !equalIDs(got, want) {
		t.Fatalf("got %d IDs, want %d", len(got), len(want))
	}
}
