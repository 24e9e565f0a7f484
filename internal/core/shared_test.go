package core

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/scan"
	"repro/internal/workload"
)

// TestEpochMonotonic pins the crack-epoch contract: the epoch never
// decreases, moves across every kind of structural mutation, and stands
// still on a converged index — the property the optimistic shared read
// path's validation depends on.
func TestEpochMonotonic(t *testing.T) {
	data := dataset.Uniform(5000, 1)
	ix := New(dataset.Clone(data), Config{})
	queries := workload.Uniform(dataset.Universe(), 64, 1e-3, 2)

	last := ix.Epoch()
	check := func(op string) {
		e := ix.Epoch()
		if e < last {
			t.Fatalf("epoch decreased after %s: %d -> %d", op, last, e)
		}
		last = e
	}

	// A cracking query must move the epoch.
	ix.Query(queries[0], nil)
	if ix.Epoch() == 0 {
		t.Fatal("cracking query did not move the epoch")
	}
	check("first query")

	for _, q := range queries {
		ix.Query(q, nil)
		check("query")
	}
	// Data changes publish versions instead of moving the crack epoch:
	// DataVersion must advance, the epoch must stand still, so shared
	// readers are never invalidated by a write burst.
	dv := ix.DataVersion()
	ix.Append(geom.Object{Box: geom.BoxAt(geom.Point{1, 2, 3}, 1), ID: 99_999})
	if ix.Epoch() != last {
		t.Fatal("Append moved the crack epoch (data changes must not)")
	}
	if ix.DataVersion() != dv+1 {
		t.Fatalf("Append moved DataVersion %d -> %d, want +1", dv, ix.DataVersion())
	}
	check("append")
	if !ix.Delete(99_999, geom.BoxAt(geom.Point{1, 2, 3}, 1)) {
		t.Fatal("Delete missed the appended object")
	}
	if ix.DataVersion() != dv+2 {
		t.Fatalf("Delete moved DataVersion to %d, want %d", ix.DataVersion(), dv+2)
	}
	check("delete")
	ix.Flush()
	check("flush")
	ix.Complete()
	check("complete")

	// Converged: repeated queries must leave the epoch untouched, so shared
	// readers never invalidate each other.
	e := ix.Epoch()
	for _, q := range queries {
		ix.Query(q, nil)
	}
	if ix.Epoch() != e {
		t.Fatalf("queries on a converged index moved the epoch: %d -> %d", e, ix.Epoch())
	}
}

// TestQuerySharedMatchesExclusive verifies the shared read path returns
// exactly what Query would, across converged, pending, and tombstoned
// states — and that it bails (rather than answering wrong) on a cold index.
func TestQuerySharedMatchesExclusive(t *testing.T) {
	data := dataset.Uniform(8000, 3)
	ix := New(dataset.Clone(data), Config{})
	queries := workload.Uniform(dataset.Universe(), 128, 1e-3, 4)

	// Cold index: any query that touches data must fall back.
	if _, ok := ix.QueryShared(queries[0], nil); ok {
		t.Fatal("shared path succeeded on a cold index")
	}

	ix.Complete()
	if !ix.Inspect(0).Converged {
		t.Fatal("Complete left the index unconverged")
	}
	sc := scan.New(dataset.Clone(data))
	for i, q := range queries {
		got, ok := ix.QueryShared(q, nil)
		if !ok {
			t.Fatalf("query %d: shared path bailed on a converged index", i)
		}
		want := sc.Query(q, nil)
		assertSameIDs(t, got, want)
	}

	// Pending objects are served read-only by the shared path.
	obj := geom.Object{Box: geom.BoxAt(queries[0].Center(), 1), ID: 500_000}
	ix.Append(obj)
	got, ok := ix.QueryShared(obj.Box, nil)
	if !ok {
		t.Fatal("shared path bailed with pending objects")
	}
	if !containsID32(got, obj.ID) {
		t.Fatal("shared path missed a pending object")
	}

	// Tombstones filter shared results immediately.
	if !ix.Delete(data[0].ID, data[0].Box) {
		t.Fatal("Delete missed an indexed object")
	}
	got, ok = ix.QueryShared(data[0].Box, nil)
	if !ok {
		t.Fatal("shared path bailed with tombstones")
	}
	if containsID32(got, data[0].ID) {
		t.Fatal("shared path returned a tombstoned object")
	}
}

// TestOneWalkEquivalence answers the same seeded boxes through every entry
// point that shares the read-only walk — QueryShared, the position probe
// behind KNNShared and DeleteShared, and queryAtVersion on a pin that a
// Flush has since superseded — plus the exclusive Query, with pending
// inserts and tombstones (indexed and pending) present, and holds all of
// them to the scan oracle.
func TestOneWalkEquivalence(t *testing.T) {
	data := dataset.Uniform(6000, 11)
	ix := New(dataset.Clone(data), Config{})
	ix.Complete()
	boxes := workload.Uniform(dataset.Universe(), 96, 2e-3, 12)

	live := dataset.Clone(data)
	for i, q := range boxes[:32] {
		o := geom.Object{Box: geom.BoxAt(q.Center(), 2), ID: int32(700_000 + i)}
		ix.Append(o)
		live = append(live, o)
	}
	dead := map[int32]bool{}
	for _, o := range append(dataset.Clone(data[:40]), live[len(data):len(data)+8]...) {
		if found, ok := ix.DeleteShared(o.ID, o.Box); !found || !ok {
			t.Fatalf("DeleteShared(%d) = %v, %v on a converged index", o.ID, found, ok)
		}
		dead[o.ID] = true
	}
	var visible []geom.Object
	for _, o := range live {
		if !dead[o.ID] {
			visible = append(visible, o)
		}
	}
	sc := scan.New(visible)

	v := ix.PinVersion()
	defer v.Release()
	for i, q := range boxes {
		want := sc.Query(q, nil)
		got, ok := ix.QueryShared(q, nil)
		if !ok {
			t.Fatalf("box %d: QueryShared bailed", i)
		}
		assertSameIDs(t, got, want)
		pos, ok := ix.positionsShared(v, q, nil)
		if !ok {
			t.Fatalf("box %d: position probe bailed", i)
		}
		var ids []int32
		for _, p := range pos {
			if id := v.table.ID[p]; !dead[id] {
				ids = append(ids, id)
			}
		}
		v.eachPending(q, func(id int32) { ids = append(ids, id) })
		assertSameIDs(t, ids, want)
		assertSameIDs(t, ix.Query(q, nil), want)
	}

	// An empty box touches nothing — lanes or pending — on every path.
	none := geom.EmptyBox()
	if got, ok := ix.QueryShared(none, nil); !ok || len(got) != 0 {
		t.Fatalf("QueryShared(empty) = %v, %v", got, ok)
	}
	if got := ix.Query(none, nil); len(got) != 0 {
		t.Fatalf("Query(empty) = %v", got)
	}

	// Writes after the pin, then a Flush: the pin keeps its superseded
	// generation — lanes and hierarchy, byte for byte — and must still
	// answer as of the pin; the live index moves on.
	late := geom.Object{Box: geom.BoxAt(boxes[0].Center(), 2), ID: 800_000}
	ix.Append(late)
	ix.Delete(visible[0].ID, visible[0].Box)
	var pinned bytes.Buffer
	if err := ix.SaveVersion(&pinned, v); err != nil {
		t.Fatal(err)
	}
	ix.Flush()
	if v.table == ix.data || v.root == ix.root {
		t.Fatal("Flush under a pin did not supersede the pinned generation")
	}
	var flushed bytes.Buffer
	if err := ix.SaveVersion(&flushed, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pinned.Bytes(), flushed.Bytes()) {
		t.Fatal("Flush changed the pinned version's snapshot")
	}
	after := scan.New(append(dataset.Clone(visible[1:]), late))
	for i, q := range boxes {
		got, ok := ix.queryAtVersion(v, q, nil)
		if !ok {
			t.Fatalf("box %d: queryAtVersion bailed on a superseded pin", i)
		}
		assertSameIDs(t, got, sc.Query(q, nil))
		assertSameIDs(t, ix.Query(q, nil), after.Query(q, nil))
	}

	// The delete locator is one body over either probe. On an unconverged
	// index with deltas, each rung — shared, budget 0, budget 1, unlimited —
	// finds exactly the visible objects (the shared rung may instead report
	// that it cannot decide, deleting nothing), reads an absent or already
	// tombstoned ID as not found, and leaves queries equal to the oracle.
	for _, budget := range []int{sharedOnly, 0, 1, -1} {
		cold, visible := unconvergedWithDeltas(t, 13)
		gone := map[int32]bool{}
		del := func(id int32, hint geom.Box, want bool) {
			t.Helper()
			found, ok := true, true
			if budget == sharedOnly {
				found, ok = cold.DeleteShared(id, hint)
			} else {
				found = cold.DeleteBudgeted(id, hint, budget)
			}
			if ok && found != want {
				t.Fatalf("budget %d: delete(%d) found = %v, want %v", budget, id, found, want)
			}
			if !ok && found {
				t.Fatalf("budget %d: delete(%d) found the object yet could not decide", budget, id)
			}
			gone[id] = gone[id] || found
		}
		for i := 0; i < len(visible); i += len(visible) / 40 {
			o := visible[i]
			del(o.ID, o.Box, true)
			del(o.ID, o.Box, !gone[o.ID]) // tombstoned by now, unless the shared rung bailed
		}
		last := visible[len(visible)-1] // a pending insert
		del(last.ID, last.Box, true)
		del(999_999, last.Box, false)
		var left []geom.Object
		for _, o := range visible {
			if !gone[o.ID] {
				left = append(left, o)
			}
		}
		oracle := scan.New(left)
		for _, q := range boxes {
			assertSameIDs(t, cold.Query(q, nil), oracle.Query(q, nil))
		}
	}
}

// TestKNNSharedMatchesKNN verifies shared KNN equals exclusive KNN on a
// converged index, and bails whenever exclusive work (Flush) would be
// needed.
func TestKNNSharedMatchesKNN(t *testing.T) {
	data := dataset.Uniform(4000, 7)
	ix := New(dataset.Clone(data), Config{})
	ix.Complete()
	probes := workload.Uniform(dataset.Universe(), 32, 1e-4, 8)
	for i, q := range probes {
		p := q.Center()
		got, ok := ix.KNNShared(p, 10)
		if !ok {
			t.Fatalf("probe %d: KNNShared bailed on a converged index", i)
		}
		want := ix.KNN(p, 10)
		if len(got) != len(want) {
			t.Fatalf("probe %d: KNNShared returned %d neighbors, KNN %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("probe %d neighbor %d: shared %+v, exclusive %+v", i, j, got[j], want[j])
			}
		}
	}
	// Pending objects no longer evict KNN readers: the shared path merges
	// them into the candidate ranking, so the freshly appended object at
	// the probe point must come back first.
	ix.Append(geom.Object{Box: geom.BoxAt(geom.Point{5, 5, 5}, 1), ID: 600_000})
	nn, ok := ix.KNNShared(geom.Point{5, 5, 5}, 3)
	if !ok {
		t.Fatal("KNNShared bailed on pending objects (MVCC path must serve them)")
	}
	if len(nn) != 3 || nn[0].ID != 600_000 || nn[0].DistSq != 0 {
		t.Fatalf("KNNShared with pending: got %+v, want appended object first", nn)
	}
	// And a tombstone must hide the object again without a bail.
	if !ix.Delete(600_000, geom.BoxAt(geom.Point{5, 5, 5}, 1)) {
		t.Fatal("Delete missed the appended object")
	}
	nn, ok = ix.KNNShared(geom.Point{5, 5, 5}, 3)
	if !ok {
		t.Fatal("KNNShared bailed on tombstones")
	}
	for _, n := range nn {
		if n.ID == 600_000 {
			t.Fatal("KNNShared returned a tombstoned object")
		}
	}

	// One search body, two probes: on an unconverged index carrying pending
	// inserts and tombstones, every budget of the exclusive rung agrees with
	// brute force over the visible objects, and so does the shared rung
	// whenever it answers at all.
	for _, budget := range []int{sharedOnly, 0, 1, -1} {
		cold, visible := unconvergedWithDeltas(t, 21)
		answered := 0
		for _, q := range workload.Uniform(dataset.Universe(), 32, 1e-4, 23) {
			p := q.Center()
			var got []Neighbor
			if budget == sharedOnly {
				var ok bool
				if got, ok = cold.KNNShared(p, 10); !ok {
					continue
				}
			} else {
				got = cold.KNNBudgeted(p, 10, budget)
			}
			answered++
			assertSameNeighbors(t, got, knnBrute(visible, p, 10))
		}
		if budget != sharedOnly && answered != 32 {
			t.Fatalf("budget %d: the exclusive rung answered %d of 32 probes", budget, answered)
		}
	}
}

// TestQueryBudgeted verifies budgeted queries stay exact at every budget —
// including zero — and that repeated budgeted queries still converge the
// index, with invariants intact throughout.
func TestQueryBudgeted(t *testing.T) {
	data := dataset.Uniform(10_000, 9)
	queries := workload.Uniform(dataset.Universe(), 96, 1e-3, 10)
	sc := scan.New(dataset.Clone(data))
	for _, budget := range []int{0, 1, 4, 64, -1} {
		ix := New(dataset.Clone(data), Config{})
		for i, q := range queries {
			before := ix.Stats().Cracks
			got := ix.QueryBudgeted(q, nil, budget)
			assertSameIDs(t, got, sc.Query(q, nil))
			if passes := ix.Stats().Cracks - before; budget >= 0 && passes > budget {
				t.Fatalf("budget %d query %d: %d passes", budget, i, passes)
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("budget %d query %d: invariants: %v", budget, i, err)
			}
		}
	}
	// A positive budget must still make progress: replaying one query often
	// enough converges its region, flipping it onto the shared path. A
	// budget of 1 is the edge: its one pass must never be a cut that leaves
	// one side empty.
	for _, budget := range []int{1, 4} {
		ix := New(dataset.Clone(data), Config{})
		q := queries[0]
		converged := false
		for i := 0; i < 10_000 && !converged; i++ {
			ix.QueryBudgeted(q, nil, budget)
			_, converged = ix.QueryShared(q, nil)
		}
		if !converged {
			t.Fatalf("budget %d: 10k replays of one query never converged its region", budget)
		}
	}
}

// unconvergedWithDeltas builds the state the second rung of the probe
// ladder exists for: an index a few queries have refined only in places,
// carrying pending inserts and tombstones over both indexed and pending
// objects. It returns the index and the objects visible in it.
func unconvergedWithDeltas(t *testing.T, seed int64) (*Index, []geom.Object) {
	t.Helper()
	data := dataset.Uniform(6000, seed)
	ix := New(dataset.Clone(data), Config{})
	for _, q := range workload.Uniform(dataset.Universe(), 24, 1e-3, seed+1) {
		ix.Query(q, nil)
	}
	live := dataset.Clone(data)
	for i, q := range workload.Uniform(dataset.Universe(), 24, 1e-3, seed+2) {
		o := geom.Object{Box: geom.BoxAt(q.Center(), 2), ID: int32(700_000 + i)}
		ix.Append(o)
		live = append(live, o)
	}
	dead := map[int32]bool{}
	for _, o := range append(dataset.Clone(data[:30]), live[len(data):len(data)+6]...) {
		if !ix.Delete(o.ID, o.Box) {
			t.Fatalf("Delete(%d) missed a visible object", o.ID)
		}
		dead[o.ID] = true
	}
	if converged := ix.Inspect(0).Converged; converged || ix.Pending() == 0 || ix.Deleted() == 0 {
		t.Fatalf("want an unconverged index with deltas: converged=%v pending=%d deleted=%d",
			converged, ix.Pending(), ix.Deleted())
	}
	var visible []geom.Object
	for _, o := range live {
		if !dead[o.ID] {
			visible = append(visible, o)
		}
	}
	return ix, visible
}

// sharedOnly, passed as a budget to the helpers below, selects the first
// rung — the read-only shared attempt — instead of a budgeted second rung.
const sharedOnly = -2

// TestKNNBudgetedNeverFlushes pins the second rung's first guarantee: a KNN
// that has to refine does so around its probes only. It never folds pending
// inserts in — only an explicit Flush does — so Pending() stands still and
// the slice count never drops.
func TestKNNBudgetedNeverFlushes(t *testing.T) {
	ix, visible := unconvergedWithDeltas(t, 31)
	pending, slices := ix.Pending(), ix.NumSlices()
	for i, q := range workload.Uniform(dataset.Universe(), 16, 1e-3, 33) {
		p := q.Center()
		assertSameNeighbors(t, ix.KNN(p, 10), knnBrute(visible, p, 10))
		if got := ix.Pending(); got != pending {
			t.Fatalf("probe %d: KNN moved Pending() %d -> %d (it must not flush)", i, pending, got)
		}
		n := ix.NumSlices()
		if n < slices {
			t.Fatalf("probe %d: KNN shrank the hierarchy %d -> %d slices", i, slices, n)
		}
		slices = n
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetedKNNAndDeleteBoundCracks pins the second guarantee: the
// exclusive KNN and delete spend at most their crack budget — over all of a
// KNN's probes together — and still answer exactly.
func TestBudgetedKNNAndDeleteBoundCracks(t *testing.T) {
	for _, budget := range []int{0, 1, 3, 64} {
		ix, visible := unconvergedWithDeltas(t, 41)
		for i, q := range workload.Uniform(dataset.Universe(), 24, 1e-3, 43) {
			p := q.Center()
			before := ix.Stats().Cracks
			assertSameNeighbors(t, ix.KNNBudgeted(p, 10, budget), knnBrute(visible, p, 10))
			if d := ix.Stats().Cracks - before; d > budget {
				t.Fatalf("budget %d, probe %d: KNN performed %d crack passes", budget, i, d)
			}
			victim := visible[len(visible)-1]
			visible = visible[:len(visible)-1]
			before = ix.Stats().Cracks
			if !ix.DeleteBudgeted(victim.ID, victim.Box, budget) {
				t.Fatalf("budget %d: DeleteBudgeted(%d) missed a visible object", budget, victim.ID)
			}
			if d := ix.Stats().Cracks - before; d > budget {
				t.Fatalf("budget %d, delete %d: performed %d crack passes", budget, i, d)
			}
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
	}
}

func assertSameNeighbors(t *testing.T, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d neighbors, want %d", len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("neighbor %d: got %+v, want %+v", j, got[j], want[j])
		}
	}
}

func assertSameIDs(t *testing.T, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	seen := make(map[int32]int, len(got))
	for _, id := range got {
		seen[id]++
	}
	for _, id := range want {
		if seen[id] == 0 {
			t.Fatalf("missing ID %d", id)
		}
		seen[id]--
	}
}

func containsID32(ids []int32, id int32) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}
