package shard

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/scan"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// checkAgainst compares the sharded index with a scan oracle over the given
// live object set on a mixed query workload.
func checkAgainst(t *testing.T, ix *Index, live []geom.Object, seed int64) {
	t.Helper()
	oracle := scan.New(live)
	queries := append(
		workload.Uniform(dataset.Universe(), 40, 1e-3, seed),
		workload.Uniform(dataset.Universe(), 10, 1e-1, seed+1)...)
	queries = append(queries, geom.MBB(live))
	var got, want []int32
	for qi, q := range queries {
		got = sortedIDs(ix.Query(q, got[:0]))
		want = sortedIDs(oracle.Query(q, want[:0]))
		if !equalIDs(got, want) {
			t.Fatalf("query %d: got %d IDs, want %d", qi, len(got), len(want))
		}
	}
	if ix.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(live))
	}
	if ix.ApproxLen() != len(live) {
		t.Fatalf("ApproxLen = %d, want %d", ix.ApproxLen(), len(live))
	}
}

// TestInsertDeleteMatchesScan drives inserts (including out-of-bounds ones
// that the nearest tile absorbs) and deletes through the sharded engine,
// checking against a scan oracle before and after Flush.
func TestInsertDeleteMatchesScan(t *testing.T) {
	data := dataset.Uniform(3000, 31)
	ix := New(data, Config{Shards: 8, SubConfig: core.Config{Tau: 32}})
	live := append([]geom.Object(nil), data...)

	// Warm the index so inserts land in refined shards.
	for _, q := range workload.Uniform(dataset.Universe(), 30, 1e-2, 32) {
		ix.Query(q, nil)
	}

	// In-bounds inserts: new objects across the universe.
	extra := dataset.Uniform(400, 33)
	for i := range extra {
		extra[i].ID = int32(100000 + i)
	}
	if err := ix.Insert(extra...); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	live = append(live, extra...)

	// Out-of-bounds inserts: centers far outside every tile route to the
	// nearest one, whose live bounds grow to cover them. No shard is added,
	// and these in-universe queries still fan out to exactly the shards
	// they did before.
	queries := append(
		workload.Uniform(dataset.Universe(), 40, 1e-3, 40),
		workload.Uniform(dataset.Universe(), 10, 1e-1, 41)...)
	before := make([][]*shardEntry, len(queries))
	for i, q := range queries {
		before[i] = ix.overlapping(q, nil)
	}
	shards := ix.NumShards()
	var far []geom.Object
	for i := 0; i < 50; i++ {
		far = append(far, geom.Object{
			Box: geom.BoxAt(geom.Point{-5000 - float64(i), -5000, -5000}, 4),
			ID:  int32(200000 + i),
		})
	}
	if err := ix.Insert(far...); err != nil {
		t.Fatalf("Insert far: %v", err)
	}
	live = append(live, far...)
	if got := ix.NumShards(); got != shards {
		t.Errorf("NumShards = %d after far inserts, want %d", got, shards)
	}
	for i, q := range queries {
		if got := ix.overlapping(q, nil); !slices.Equal(got, before[i]) {
			t.Errorf("query %d: far inserts changed its overlapped shards (%d before, %d after)", i, len(before[i]), len(got))
		}
	}
	if ix.Pending() == 0 {
		t.Error("Pending = 0 after inserts, want > 0")
	}
	checkAgainst(t, ix, live, 40)

	// Delete a mix of original, inserted, and far objects.
	drop := []geom.Object{data[0], data[1717], extra[7], extra[399], far[0], far[49]}
	for _, o := range drop {
		found, err := ix.Delete(o.ID, o.Box)
		if err != nil {
			t.Fatalf("Delete(%d): %v", o.ID, err)
		}
		if !found {
			t.Fatalf("Delete(%d) found nothing", o.ID)
		}
	}
	dead := make(map[int32]bool)
	for _, o := range drop {
		dead[o.ID] = true
	}
	kept := live[:0]
	for _, o := range live {
		if !dead[o.ID] {
			kept = append(kept, o)
		}
	}
	live = kept
	checkAgainst(t, ix, live, 41)

	// Deleting a missing ID reports false without error.
	if found, err := ix.Delete(999999, geom.BoxAt(geom.Point{1, 1, 1}, 1)); err != nil || found {
		t.Errorf("Delete(missing) = %v, %v; want false, nil", found, err)
	}

	// Flush compacts; results must be unchanged and pending drained.
	if err := ix.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if p := ix.Pending(); p != 0 {
		t.Errorf("Pending = %d after Flush, want 0", p)
	}
	checkAgainst(t, ix, live, 42)
}

// TestConcurrentUpdates mixes concurrent inserts, deletes, queries and
// flushes. Each goroutine owns a private ID range and checks
// read-your-writes visibility on it; foreign in-flight IDs are ignored.
// Run with -race.
func TestConcurrentUpdates(t *testing.T) {
	data := dataset.Uniform(4000, 51)
	ix := New(data, Config{Shards: 8, SubConfig: core.Config{Tau: 32}})

	const goroutines = 8
	const rounds = 30
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := int32(1_000_000 + g*10_000)
			objs := dataset.Uniform(rounds, int64(60+g))
			for r := 0; r < rounds; r++ {
				o := objs[r]
				o.ID = base + int32(r)
				if err := ix.Insert(o); err != nil {
					errs <- fmt.Sprintf("g%d insert: %v", g, err)
					return
				}
				ids := ix.Query(o.Box, nil)
				if !containsID(ids, o.ID) {
					errs <- fmt.Sprintf("g%d: inserted %d not visible", g, o.ID)
					return
				}
				if r%3 == 0 {
					found, err := ix.Delete(o.ID, o.Box)
					if err != nil || !found {
						errs <- fmt.Sprintf("g%d delete %d: found=%v err=%v", g, o.ID, found, err)
						return
					}
					if containsID(ix.Query(o.Box, nil), o.ID) {
						errs <- fmt.Sprintf("g%d: deleted %d still visible", g, o.ID)
						return
					}
				}
				if r%10 == 5 {
					if err := ix.Flush(); err != nil {
						errs <- fmt.Sprintf("g%d flush: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestConcurrentFlushMatchesScan runs Query, Insert and Delete on four
// shards while another goroutine flushes over and over, so the shards'
// concurrent folds race every other operation (run with -race). Objects no
// writer touches must stay visible throughout, and after a final Flush the
// answers must equal a scan over the live set.
func TestConcurrentFlushMatchesScan(t *testing.T) {
	const n, writers, perWriter = 4000, 2, 150
	data := dataset.Uniform(n, 81)
	ix := New(dataset.Clone(data), Config{Shards: 4, SubConfig: core.Config{Tau: 32}})
	if ix.NumShards() < 4 {
		t.Fatalf("%d shards, want 4", ix.NumShards())
	}
	stable := data[writers*perWriter:] // objects no writer deletes

	var writing, reading sync.WaitGroup
	var done atomic.Bool
	errs := make(chan string, writers+3)
	inserted := make([][]geom.Object, writers)
	for g := 0; g < writers; g++ {
		writing.Add(1)
		go func(g int) {
			defer writing.Done()
			fresh := dataset.Uniform(perWriter, int64(90+g))
			for i := range fresh {
				o := fresh[i]
				o.ID = int32(1_000_000 + g*10_000 + i)
				if err := ix.Insert(o); err != nil {
					errs <- fmt.Sprintf("writer %d insert: %v", g, err)
					return
				}
				victim := data[g*perWriter+i]
				if found, err := ix.Delete(victim.ID, victim.Box); err != nil || !found {
					errs <- fmt.Sprintf("writer %d delete %d: found=%v err=%v", g, victim.ID, found, err)
					return
				}
				if i%3 == 0 {
					if found, err := ix.Delete(o.ID, o.Box); err != nil || !found {
						errs <- fmt.Sprintf("writer %d delete own %d: found=%v err=%v", g, o.ID, found, err)
						return
					}
					continue
				}
				inserted[g] = append(inserted[g], o)
			}
		}(g)
	}
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			var buf []int32
			for i := r; !done.Load(); i += 2 {
				o := stable[i%len(stable)]
				if buf = ix.Query(o.Box, buf[:0]); !containsID(buf, o.ID) {
					errs <- fmt.Sprintf("reader %d: stable object %d missing", r, o.ID)
					return
				}
			}
		}(r)
	}
	reading.Add(1)
	flushes := 0
	go func() {
		defer reading.Done()
		for !done.Load() || flushes < 3 {
			if err := ix.Flush(); err != nil {
				errs <- fmt.Sprintf("flush: %v", err)
				return
			}
			flushes++
		}
	}()
	writing.Wait()
	done.Store(true)
	reading.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	if ix.Pending() != 0 {
		t.Fatalf("Pending() = %d after the final Flush", ix.Pending())
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
	live := slices.Clone(stable)
	for _, objs := range inserted {
		live = append(live, objs...)
	}
	checkAgainst(t, ix, live, 83)
}

func containsID(ids []int32, id int32) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// bruteKNN is the oracle: rank all live objects by box distance to p.
func bruteKNN(objs []geom.Object, p geom.Point, k int) []core.Neighbor {
	nn := make([]core.Neighbor, 0, len(objs))
	for i := range objs {
		nn = append(nn, core.Neighbor{ID: objs[i].ID, DistSq: objs[i].MinDistSq(p)})
	}
	sort.Slice(nn, func(i, j int) bool {
		if nn[i].DistSq != nn[j].DistSq {
			return nn[i].DistSq < nn[j].DistSq
		}
		return nn[i].ID < nn[j].ID
	})
	if len(nn) > k {
		nn = nn[:k]
	}
	return nn
}

// TestKNNMatchesBruteForce checks sharded KNN against brute force for
// several k and query points, before and after inserts.
func TestKNNMatchesBruteForce(t *testing.T) {
	data := dataset.Uniform(2500, 71)
	ix := New(data, Config{Shards: 8})
	live := append([]geom.Object(nil), data...)

	points := []geom.Point{
		{100, 100, 100}, {5000, 5000, 5000}, {9999, 0, 9999}, {-500, 200, 300},
	}
	check := func() {
		t.Helper()
		for _, p := range points {
			for _, k := range []int{1, 5, 60} {
				got, err := ix.KNN(p, k)
				if err != nil {
					t.Fatalf("KNN: %v", err)
				}
				want := bruteKNN(live, p, k)
				if len(got) != len(want) {
					t.Fatalf("KNN(%v,%d): %d results, want %d", p, k, len(got), len(want))
				}
				for i := range got {
					// Both sides rank by (DistSq, ID) on identical float
					// arithmetic, so results must agree exactly.
					if got[i] != want[i] {
						t.Fatalf("KNN(%v,%d)[%d] = %+v, want %+v", p, k, i, got[i], want[i])
					}
				}
			}
		}
	}
	check()

	extra := dataset.Uniform(200, 72)
	for i := range extra {
		extra[i].ID = int32(500000 + i)
	}
	if err := ix.Insert(extra...); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	live = append(live, extra...)
	check()

	// k exceeding the object count returns everything.
	all, err := ix.KNN(points[0], len(live)+10)
	if err != nil {
		t.Fatalf("KNN all: %v", err)
	}
	if len(all) != len(live) {
		t.Errorf("KNN with huge k returned %d, want %d", len(all), len(live))
	}
}

// TestBudgetedKNNLeavesPendingUnflushed drives the ladder's second rung the
// way production does: a shard holding pending inserts takes a KNN into a
// region no query has refined. The probe must refine in place — not fold
// the pending inserts in, which only Flush does — so Pending() stands still, the answer includes the pending objects, and range
// queries afterwards still match the scan oracle.
func TestBudgetedKNNLeavesPendingUnflushed(t *testing.T) {
	data := dataset.Uniform(4000, 91)
	ix := New(data, Config{Shards: 2, CrackBudget: 8})
	for _, q := range workload.Uniform(dataset.Universe(), 20, 1e-3, 92) {
		ix.Query(q, nil)
	}
	extra := dataset.Uniform(50, 93)
	for i := range extra {
		extra[i].ID = int32(600000 + i)
	}
	if err := ix.Insert(extra...); err != nil {
		t.Fatal(err)
	}
	live := append(append([]geom.Object(nil), data...), extra...)
	pending := ix.Pending()
	for _, q := range workload.Uniform(dataset.Universe(), 12, 1e-3, 94) {
		p := q.Center()
		got, err := ix.KNN(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range bruteKNN(live, p, 5) {
			if got[i] != want {
				t.Fatalf("KNN(%v)[%d] = %+v, want %+v", p, i, got[i], want)
			}
		}
		if n := ix.Pending(); n != pending {
			t.Fatalf("KNN moved Pending() %d -> %d: the second rung flushed", pending, n)
		}
	}
	if st := ix.Stats(); st.Core.Queries == 0 {
		t.Fatal("no KNN probe reached the exclusive rung; the test exercises nothing")
	}
	checkAgainst(t, ix, live, 95)
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushObservesDuration: every Flush of an instrumented index is one
// observation of quasii_shard_flush_duration_seconds, and the merged
// shards keep answering like the scan oracle.
func TestFlushObservesDuration(t *testing.T) {
	data := dataset.Uniform(3000, 96)
	ix := New(dataset.Clone(data), Config{Shards: 3})
	reg := telemetry.NewRegistry()
	ix.Instrument(reg)
	ix.Complete()
	live := dataset.Clone(data[100:])
	for _, o := range data[:100] {
		if found, err := ix.Delete(o.ID, o.Box); err != nil || !found {
			t.Fatalf("Delete(%d) = %v, %v", o.ID, found, err)
		}
	}
	extra := dataset.Uniform(100, 97)
	for i := range extra {
		extra[i].ID = int32(700000 + i)
	}
	if err := ix.Insert(extra...); err != nil {
		t.Fatal(err)
	}
	live = append(live, extra...)
	for i := 0; i < 2; i++ {
		if err := ix.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if n := ix.mFlush.Count(); n != 2 {
		t.Fatalf("flush histogram holds %d observations, want 2", n)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, ix, live, 98)
}
