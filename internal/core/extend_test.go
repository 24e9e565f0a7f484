package core

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/scan"
	"repro/internal/workload"
)

// TestEquivalenceStochastic and TestEquivalenceStochasticSequential run the
// streams that once exercised the random pre-cut under the default policy,
// whose centre cut now stands in for it.
func TestEquivalenceStochastic(t *testing.T) {
	data := dataset.Uniform(5000, 501)
	queries := workload.Uniform(dataset.Universe(), 120, 1e-3, 502)
	runEquivalence(t, data, queries, Config{Tau: 32})
}

func TestEquivalenceStochasticSequential(t *testing.T) {
	data := dataset.Uniform(5000, 503)
	queries := workload.Sequential(dataset.Universe(), 150, 1e-3, 0)
	runEquivalence(t, data, queries, Config{Tau: 32})
}

// TestStochasticTamesSequentialWorkload: under a single-pass fine-grained
// sequential sweep, plain cracking re-partitions the shrinking unrefined
// tail on every query; on this stream it moved 1,000,049 rows. The centre
// cut on every re-cracked band over 2·τ₀ must move fewer, while query #1,
// which cracks the root, moves exactly what it did.
func TestStochasticTamesSequentialWorkload(t *testing.T) {
	const plainRows, plainFirst = 1_000_049, 41_464
	data := dataset.Uniform(40000, 506)
	queries := workload.Sequential(dataset.Universe(), 45, 1e-5, 0)
	ix := New(dataset.Clone(data), Config{})
	for i, q := range queries {
		ix.Query(q, nil)
		if i == 0 && ix.Stats().CrackedObjects != plainFirst {
			t.Fatalf("query #1 moved %d rows, want %d", ix.Stats().CrackedObjects, plainFirst)
		}
	}
	if moved := ix.Stats().CrackedObjects; moved >= plainRows {
		t.Fatalf("the sweep moved %d rows, plain cracking %d — no improvement", moved, plainRows)
	}
}

func TestCompleteRefinesEverything(t *testing.T) {
	data := dataset.Uniform(10000, 507)
	ix := New(dataset.Clone(data), Config{Tau: 32})
	ix.Complete()
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// After Complete, queries crack nothing.
	before := ix.Stats().Cracks
	for _, q := range workload.Uniform(dataset.Universe(), 50, 1e-3, 508) {
		ix.Query(q, nil)
	}
	if after := ix.Stats().Cracks; after != before {
		t.Fatalf("queries still cracked after Complete: %d -> %d", before, after)
	}
}

func TestCompleteMatchesScan(t *testing.T) {
	data := dataset.Uniform(5000, 509)
	oracle := scan.New(data)
	ix := New(dataset.Clone(data), Config{Tau: 32})
	ix.Complete()
	for qi, q := range workload.Uniform(dataset.Universe(), 80, 1e-3, 510) {
		got := sortedIDs(ix.Query(q, nil))
		want := sortedIDs(oracle.Query(q, nil))
		if !equalIDs(got, want) {
			t.Fatalf("query %d: got %d, want %d", qi, len(got), len(want))
		}
	}
}

func TestCompleteAfterPartialRefinement(t *testing.T) {
	data := dataset.Uniform(8000, 511)
	ix := New(dataset.Clone(data), Config{Tau: 32})
	for _, q := range workload.Uniform(dataset.Universe(), 30, 1e-3, 512) {
		ix.Query(q, nil)
	}
	ix.Complete()
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	res := ix.Query(dataset.Universe(), nil)
	if len(res) != len(data) {
		t.Fatalf("universe query found %d of %d", len(res), len(data))
	}
}

// TestCompleteSliceCountsHeld holds Complete — artificial refinement around
// an all-covering query — to fixed slice counts on seeds 1–8, from a cold
// index and from one 64 queries had partly refined. The counts move when
// the cut positions do: the root's box (the data MBB) and the key bound
// artificial refinement carries decide the midpoints.
func TestCompleteSliceCountsHeld(t *testing.T) {
	cold := [8]int{579, 580, 579, 582, 582, 581, 579, 579}
	warm := [8]int{621, 608, 647, 645, 613, 625, 622, 607}
	for i := range cold {
		seed := int64(i + 1)
		data := dataset.Uniform(20_000, seed)
		for _, tc := range []struct {
			queries []geom.Box
			want    int
		}{
			{nil, cold[i]},
			{workload.Uniform(dataset.Universe(), 64, 1e-3, seed+100), warm[i]},
		} {
			ix := New(dataset.Clone(data), Config{})
			for _, q := range tc.queries {
				ix.Query(q, nil)
			}
			ix.Complete()
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !ix.Inspect(0).Converged {
				t.Fatalf("seed %d: Complete left the index unconverged", seed)
			}
			if n := ix.NumSlices(); n != tc.want {
				t.Fatalf("seed %d after %d queries: %d slices, want %d", seed, len(tc.queries), n, tc.want)
			}
		}
	}
}

func TestCompleteEmptyIndex(t *testing.T) {
	ix := New(nil, Config{})
	ix.Complete() // must not panic
}

func TestAppendVisibleBeforeFlush(t *testing.T) {
	data := dataset.Uniform(1000, 513)
	ix := New(dataset.Clone(data), Config{Tau: 32})
	extra := geom.Object{Box: geom.BoxAt(geom.Point{42, 42, 42}, 2), ID: 99999}
	ix.Append(extra)
	if ix.Len() != 1001 || ix.Pending() != 1 {
		t.Fatalf("Len=%d Pending=%d", ix.Len(), ix.Pending())
	}
	res := ix.Query(geom.BoxAt(geom.Point{42, 42, 42}, 4), nil)
	found := false
	for _, id := range res {
		if id == 99999 {
			found = true
		}
	}
	if !found {
		t.Fatal("appended object invisible before Flush")
	}
}

func TestFlushIntegratesAppended(t *testing.T) {
	base := dataset.Uniform(2000, 514)
	extra := dataset.Uniform(500, 515)
	for i := range extra {
		extra[i].ID += 10000
	}
	ix := New(dataset.Clone(base), Config{Tau: 32})
	for _, q := range workload.Uniform(dataset.Universe(), 20, 1e-3, 516) {
		ix.Query(q, nil) // pre-refine, then invalidate via Flush
	}
	ix.Append(extra...)
	ix.Flush()
	if ix.Pending() != 0 || ix.Len() != 2500 {
		t.Fatalf("Pending=%d Len=%d", ix.Pending(), ix.Len())
	}
	all := append(dataset.Clone(base), extra...)
	oracle := scan.New(all)
	for qi, q := range workload.Uniform(dataset.Universe(), 60, 1e-3, 517) {
		got := sortedIDs(ix.Query(q, nil))
		want := sortedIDs(oracle.Query(q, nil))
		if !equalIDs(got, want) {
			t.Fatalf("query %d after flush: got %d, want %d", qi, len(got), len(want))
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFlushNoPendingIsNoop(t *testing.T) {
	data := dataset.Uniform(500, 518)
	ix := New(dataset.Clone(data), Config{Tau: 16})
	for _, q := range workload.Uniform(dataset.Universe(), 10, 1e-2, 519) {
		ix.Query(q, nil)
	}
	slices := ix.NumSlices()
	ix.Flush()
	if ix.NumSlices() != slices {
		t.Fatal("Flush without pending data reset the hierarchy")
	}
}

func TestKNNWithPendingObjects(t *testing.T) {
	data := dataset.Uniform(2000, 520)
	ix := New(dataset.Clone(data), Config{Tau: 32})
	target := geom.Object{Box: geom.BoxAt(geom.Point{7777, 7777, 7777}, 1), ID: 55555}
	ix.Append(target)
	nn := ix.KNN(geom.Point{7777, 7777, 7777}, 1)
	if len(nn) != 1 || nn[0].ID != 55555 {
		t.Fatalf("KNN missed the appended nearest object: %v", nn)
	}
}

func TestStochasticWithClusteredWorkloadStillCorrect(t *testing.T) {
	data := dataset.Neuro(4000, 521, dataset.NeuroConfig{})
	oracle := scan.New(data)
	ix := New(dataset.Clone(data), Config{})
	var got, want []int32
	for qi, q := range workload.ClusteredOn(dataset.Universe(), data, 4, 25, 1e-4, 200, 522) {
		got = ix.Query(q, got[:0])
		want = oracle.Query(q, want[:0])
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !equalIDs(got, want) {
			t.Fatalf("query %d: got %d, want %d", qi, len(got), len(want))
		}
	}
}

func TestDeleteHidesObjectImmediately(t *testing.T) {
	data := dataset.Uniform(2000, 530)
	ix := New(dataset.Clone(data), Config{Tau: 32})
	victim := data[1234]
	if !ix.Delete(victim.ID, victim.Box) {
		t.Fatal("Delete failed to find the object")
	}
	if ix.Deleted() != 1 || ix.Len() != 1999 {
		t.Fatalf("Deleted=%d Len=%d", ix.Deleted(), ix.Len())
	}
	res := ix.Query(victim.Box, nil)
	for _, id := range res {
		if id == victim.ID {
			t.Fatal("deleted object still returned")
		}
	}
}

func TestDeleteThenFlushCompacts(t *testing.T) {
	data := dataset.Uniform(2000, 531)
	ix := New(dataset.Clone(data), Config{Tau: 32})
	rng := rand.New(rand.NewSource(532))
	removed := make(map[int32]bool)
	for _, i := range rng.Perm(len(data))[:500] {
		if !ix.Delete(data[i].ID, data[i].Box) {
			t.Fatalf("Delete(%d) failed", data[i].ID)
		}
		removed[data[i].ID] = true
	}
	ix.Flush()
	if ix.Deleted() != 0 || ix.Len() != 1500 {
		t.Fatalf("after flush: Deleted=%d Len=%d", ix.Deleted(), ix.Len())
	}
	// Remaining objects must exactly match the survivors.
	live := make([]geom.Object, 0, 1500)
	for _, o := range data {
		if !removed[o.ID] {
			live = append(live, o)
		}
	}
	oracle := scan.New(live)
	for qi, q := range workload.Uniform(dataset.Universe(), 50, 1e-3, 533) {
		got := sortedIDs(ix.Query(q, nil))
		want := sortedIDs(oracle.Query(q, nil))
		if !equalIDs(got, want) {
			t.Fatalf("query %d after compaction: got %d, want %d", qi, len(got), len(want))
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeletePendingObject(t *testing.T) {
	ix := New(dataset.Uniform(100, 534), Config{})
	o := geom.Object{Box: geom.BoxAt(geom.Point{5, 5, 5}, 1), ID: 7777}
	ix.Append(o)
	if !ix.Delete(7777, o.Box) {
		t.Fatal("Delete of pending object failed")
	}
	// Deletion is a tombstone even for pending objects (the version's
	// pending slice is immutable); the object must be invisible everywhere
	// and Flush must not resurrect it.
	if ix.Len() != 100 {
		t.Fatalf("Len = %d after deleting the pending object", ix.Len())
	}
	if got := ix.Query(o.Box, nil); containsID(got, 7777) {
		t.Fatal("deleted pending object still visible to Query")
	}
	if ix.Delete(7777, o.Box) {
		t.Fatal("second Delete of the same ID reported success")
	}
	ix.Flush()
	if ix.Pending() != 0 || ix.Deleted() != 0 {
		t.Fatalf("Pending=%d Deleted=%d after Flush", ix.Pending(), ix.Deleted())
	}
	if got := ix.Query(o.Box, nil); containsID(got, 7777) {
		t.Fatal("Flush resurrected a tombstoned pending object")
	}
}

func containsID(ids []int32, id int32) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

func TestDeleteMissing(t *testing.T) {
	ix := New(dataset.Uniform(100, 535), Config{})
	if ix.Delete(99999, dataset.Universe()) {
		t.Fatal("Delete of missing ID reported success")
	}
	if ix.Len() != 100 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestDeleteSurvivesPersistence(t *testing.T) {
	data := dataset.Uniform(500, 536)
	ix := New(dataset.Clone(data), Config{Tau: 16})
	victim := data[42]
	ix.Delete(victim.ID, victim.Box)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Deleted() != 1 || loaded.Len() != 499 {
		t.Fatalf("Deleted=%d Len=%d after reload", loaded.Deleted(), loaded.Len())
	}
	for _, id := range loaded.Query(victim.Box, nil) {
		if id == victim.ID {
			t.Fatal("tombstone lost in round trip")
		}
	}
}
