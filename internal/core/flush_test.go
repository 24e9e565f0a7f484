package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/scan"
	"repro/internal/workload"
)

// eachSlice calls fn on every slice of l's subtree, parents first.
func eachSlice(l *sliceList, fn func(s *slice)) {
	for _, s := range l.slices {
		fn(s)
		if s.children != nil {
			eachSlice(s.children, fn)
		}
	}
}

// sliceSet records every slice of ix's hierarchy with its row range.
func sliceSet(ix *Index) map[*slice][2]int {
	set := map[*slice][2]int{}
	eachSlice(ix.root, func(s *slice) { set[s] = [2]int{s.lo, s.hi} })
	return set
}

// convergeOn answers pool until a full pass cracks nothing.
func convergeOn(ix *Index, pool []geom.Box) {
	for last := -1; ix.Stats().Cracks != last; {
		last = ix.Stats().Cracks
		for _, q := range pool {
			ix.Query(q, nil)
		}
	}
}

// TestFlushKeepsHierarchy: Flush merges the deltas into the slices earlier
// queries built instead of restarting refinement.
func TestFlushKeepsHierarchy(t *testing.T) {
	t.Run("merge", func(t *testing.T) {
		data := dataset.Uniform(20000, 540)
		ix := New(dataset.Clone(data), Config{})
		pool := workload.Uniform(dataset.Universe(), 200, 1e-3, 541)
		convergeOn(ix, pool)

		// Drain one refined bottom-level leaf completely.
		var drained *slice
		eachSlice(ix.root, func(s *slice) {
			if drained == nil && s.level == geom.Dims-1 && s.refined && s.lo > ix.data.Len()/2 {
				drained = s
			}
		})
		if drained == nil {
			t.Fatal("no refined leaf to drain")
		}
		live := map[int32]geom.Object{}
		for _, o := range data {
			live[o.ID] = o
		}
		var victims []geom.Object
		for p := drained.lo; p < drained.hi; p++ {
			victims = append(victims, ix.data.ObjectAt(p))
		}
		// A few hundred more deletes, each replaced by an arrival with the
		// same box: it routes back to its victim's leaf, so no leaf grows.
		rng := rand.New(rand.NewSource(542))
		var arrivals []geom.Object
		for _, i := range rng.Perm(len(data))[:300] {
			o := data[i]
			if !containsObject(victims, o.ID) {
				victims = append(victims, o)
				arrivals = append(arrivals, geom.Object{Box: o.Box, ID: o.ID + 100000})
			}
		}
		for _, o := range victims {
			if !ix.Delete(o.ID, o.Box) {
				t.Fatalf("Delete(%d) found nothing", o.ID)
			}
			delete(live, o.ID)
		}
		ix.Append(arrivals...)
		for _, o := range arrivals {
			live[o.ID] = o
		}
		// One arrival tombstoned while still pending: Flush must drop it.
		ghost := geom.Object{Box: geom.BoxAt(geom.Point{500, 500, 500}, 1), ID: 999999}
		ix.Append(ghost)
		if !ix.Delete(ghost.ID, ghost.Box) {
			t.Fatal("Delete of the pending object found nothing")
		}

		before := sliceSet(ix)
		ix.Flush()
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if ix.Pending() != 0 || ix.Deleted() != 0 || ix.Len() != len(live) {
			t.Fatalf("Pending=%d Deleted=%d Len=%d, want 0 0 %d", ix.Pending(), ix.Deleted(), ix.Len(), len(live))
		}
		after := sliceSet(ix)
		if _, ok := after[drained]; ok {
			t.Fatal("the drained leaf survived the Flush")
		}
		for s := range after {
			if _, ok := before[s]; !ok {
				t.Fatalf("Flush made a new slice at level %d [%d,%d)", s.level, s.lo, s.hi)
			}
			if s.size() == 0 {
				t.Fatalf("empty slice at level %d kept", s.level)
			}
		}
		if gone := len(before) - len(after); gone > geom.Dims {
			t.Fatalf("Flush dropped %d slices, want only the drained leaf and its single-child ancestors", gone)
		}

		objs := make([]geom.Object, 0, len(live))
		for _, o := range live {
			objs = append(objs, o)
		}
		oracle := scan.New(objs)
		cracks := ix.Stats().Cracks
		for qi, q := range pool {
			got, ok := ix.QueryShared(q, nil)
			if !ok {
				t.Fatalf("pool query %d left the shared path after Flush", qi)
			}
			if got, want := sortedIDs(got), sortedIDs(oracle.Query(q, nil)); !equalIDs(got, want) {
				t.Fatalf("pool query %d: got %d ids, scan says %d", qi, len(got), len(want))
			}
		}
		if now := ix.Stats().Cracks; now != cracks {
			t.Fatalf("pool queries cracked %d times after Flush", now-cracks)
		}
		for qi, q := range workload.Uniform(dataset.Universe(), 100, 1e-3, 543) {
			if got, want := sortedIDs(ix.Query(q, nil)), sortedIDs(oracle.Query(q, nil)); !equalIDs(got, want) {
				t.Fatalf("query %d: got %d ids, scan says %d", qi, len(got), len(want))
			}
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("overfull leaf", func(t *testing.T) {
		data := dataset.Uniform(20000, 544)
		ix := New(dataset.Clone(data), Config{})
		ix.Complete()
		var leaf *slice
		eachSlice(ix.root, func(s *slice) {
			if leaf == nil && s.level == geom.Dims-1 && s.lo > ix.data.Len()/3 {
				leaf = s
			}
		})
		refined := map[*slice]bool{}
		eachSlice(ix.root, func(s *slice) { refined[s] = s.refined })

		// Copies of the leaf's own rows route back into it: push it past τ.
		n := leaf.size()
		grow := ix.Tau(geom.Dims-1) - n + 5
		all := dataset.Clone(data)
		for i := 0; i < grow; i++ {
			o := ix.data.ObjectAt(leaf.lo + i%n)
			o.ID = int32(200000 + i)
			ix.Append(o)
			all = append(all, o)
		}
		ix.Flush()
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if leaf.size() != n+grow {
			t.Fatalf("leaf holds %d rows, want %d", leaf.size(), n+grow)
		}
		eachSlice(ix.root, func(s *slice) {
			if want := refined[s] && s != leaf; s.refined != want {
				t.Fatalf("level %d slice [%d,%d): refined = %v, want %v", s.level, s.lo, s.hi, s.refined, want)
			}
		})

		// The next query over the leaf cracks it and nothing else.
		others := sliceSet(ix)
		delete(others, leaf)
		size := leaf.size()
		st := ix.Stats()
		q := leaf.box
		if got, want := sortedIDs(ix.Query(q, nil)), sortedIDs(scan.New(all).Query(q, nil)); !equalIDs(got, want) {
			t.Fatalf("query over the overfull leaf: got %d ids, scan says %d", len(got), len(want))
		}
		now := ix.Stats()
		if now.Cracks == st.Cracks {
			t.Fatal("the overfull leaf was not cracked")
		}
		if moved := now.CrackedObjects - st.CrackedObjects; moved > int64(now.Cracks-st.Cracks)*int64(size) {
			t.Fatalf("%d crack passes moved %d rows, more than the leaf's %d each", now.Cracks-st.Cracks, moved, size)
		}
		after := sliceSet(ix)
		for s, r := range others {
			if after[s] != r {
				t.Fatalf("level %d slice [%d,%d) changed by the query", s.level, r[0], r[1])
			}
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func containsObject(objs []geom.Object, id int32) bool {
	for i := range objs {
		if objs[i].ID == id {
			return true
		}
	}
	return false
}

// TestFlushAfterDeletingEverything: a Flush that drains every leaf leaves
// an empty index that still answers, and takes arrivals again.
func TestFlushAfterDeletingEverything(t *testing.T) {
	data := dataset.Uniform(500, 545)
	ix := New(dataset.Clone(data), Config{Tau: 16})
	for _, q := range workload.Uniform(dataset.Universe(), 20, 1e-2, 546) {
		ix.Query(q, nil)
	}
	for _, o := range data {
		if !ix.Delete(o.ID, o.Box) {
			t.Fatalf("Delete(%d) found nothing", o.ID)
		}
	}
	ix.Flush()
	if ix.Len() != 0 || ix.NumSlices() != 0 {
		t.Fatalf("Len=%d NumSlices=%d after deleting everything", ix.Len(), ix.NumSlices())
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	all := geom.UniverseBox()
	if got := ix.Query(all, nil); len(got) != 0 {
		t.Fatalf("Query = %v on an empty index", got)
	}
	if got, ok := ix.QueryShared(all, nil); !ok || len(got) != 0 {
		t.Fatalf("QueryShared = %v, %v on an empty index", got, ok)
	}
	if nn := ix.KNN(geom.Point{1, 2, 3}, 3); len(nn) != 0 {
		t.Fatalf("KNN = %v on an empty index", nn)
	}

	more := dataset.Uniform(200, 547)
	ix.Append(more...)
	ix.Flush()
	assertFlushedLike(t, ix, more, 548)
}

// TestFlushIntoEmptyIndex: an index built over no objects has no slices;
// its first Flush gives the arrivals a root.
func TestFlushIntoEmptyIndex(t *testing.T) {
	ix := New(nil, Config{Tau: 16})
	objs := dataset.Uniform(300, 549)
	ix.Append(objs...)
	ix.Flush()
	assertFlushedLike(t, ix, objs, 550)
}

// assertFlushedLike requires a flushed ix to hold exactly objs: intact
// invariants, no deltas, and answers equal to a scan.
func assertFlushedLike(t *testing.T, ix *Index, objs []geom.Object, seed int64) {
	t.Helper()
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ix.Pending() != 0 || ix.Len() != len(objs) {
		t.Fatalf("Pending=%d Len=%d, want 0 %d", ix.Pending(), ix.Len(), len(objs))
	}
	oracle := scan.New(objs)
	for qi, q := range workload.Uniform(dataset.Universe(), 40, 1e-2, seed) {
		if got, want := sortedIDs(ix.Query(q, nil)), sortedIDs(oracle.Query(q, nil)); !equalIDs(got, want) {
			t.Fatalf("query %d: got %d ids, scan says %d", qi, len(got), len(want))
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushIntoEmptyLoadedSlice: Load accepts an empty slice whose child
// list is empty. Flush treats it as a leaf, so an arrival routed into it
// lands there instead of descending into a list with no slices.
func TestFlushIntoEmptyLoadedSlice(t *testing.T) {
	data := dataset.Uniform(2000, 551)
	ix := New(dataset.Clone(data), Config{Tau: 16})
	ix.Complete()
	raw := rewriteHeader(t, saveBytes(t, ix), func(h *snapshotV2) {
		last := h.Root.Slices[len(h.Root.Slices)-1]
		h.Root.Slices = append(h.Root.Slices, snapSlice{Lo: last.Hi, Hi: last.Hi, Box: last.Box, Refined: true,
			Children: &snapList{MaxExt: 1}})
	})
	loaded, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	empty := loaded.root.slices[len(loaded.root.slices)-1]
	if empty.size() != 0 || empty.children == nil || len(empty.children.slices) != 0 {
		t.Fatalf("want an empty slice with an empty child list, got [%d,%d) children %v", empty.lo, empty.hi, empty.children)
	}
	far := geom.Object{Box: geom.BoxAt(geom.Point{20000, 5, 5}, 1), ID: 77777}
	loaded.Append(far)
	loaded.Flush()
	if empty.size() != 1 || empty.children != nil {
		t.Fatalf("the arrival did not land in the empty slice: [%d,%d)", empty.lo, empty.hi)
	}
	assertFlushedLike(t, loaded, append(dataset.Clone(data), far), 552)
}
