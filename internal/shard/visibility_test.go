// Shard-level version-visibility harness. The core package proves the MVCC
// chain exact against a sequence-replay oracle; here the same contract is
// held through the engine's routing, RWMutex scheduling and pinned
// snapshots:
//
//   - a deterministic zero-pause proof: updates acked after PinVersions are
//     visible to live queries immediately, and a snapshot written from the
//     pinned set restores to exactly the pre-pin state;
//   - an acked-writes audit under concurrent load: any insert acked before
//     a reader started must appear in that reader's results, and a client
//     that deleted an object never sees it again (read-your-writes);
//   - the -race stress matrix extended with checkpoint pinning: KNN, Flush
//     and snapshot-under-pin run concurrently with version publication, and
//     CheckInvariants (which enforces the version-GC horizon) plus a
//     live-version count close every round.
package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/geom"
	"repro/internal/workload"
)

func universeIDs(t *testing.T, ix *Index) map[int32]struct{} {
	t.Helper()
	ids := ix.Query(geom.UniverseBox(), nil)
	set := make(map[int32]struct{}, len(ids))
	for _, id := range ids {
		set[id] = struct{}{}
	}
	return set
}

// TestPinnedSnapshotSeesPinState is the shard-layer zero-pause proof:
// inserts and deletes acked while a PinSet is held are immediately visible
// to live queries, and the snapshot written from the pins restores to
// exactly the pre-pin state — set A in, set B out.
func TestPinnedSnapshotSeesPinState(t *testing.T) {
	base := dataset.Uniform(2000, 21)
	ix := New(dataset.Clone(base), Config{Shards: 4})

	mkObjs := func(first int32, n int) []geom.Object {
		objs := make([]geom.Object, n)
		for i := range objs {
			objs[i] = geom.Object{
				Box: geom.BoxAt(base[i%len(base)].Center(), 1),
				ID:  first + int32(i),
			}
		}
		return objs
	}
	setA := mkObjs(1_000_000, 100)
	if err := ix.Insert(setA...); err != nil {
		t.Fatal(err)
	}
	// One pre-pin delete: the snapshot must reflect it.
	preDel := base[7]
	if found, err := ix.Delete(preDel.ID, preDel.Box); err != nil || !found {
		t.Fatalf("pre-pin delete: found=%v err=%v", found, err)
	}

	ps, err := ix.PinVersions()
	if err != nil {
		t.Fatal(err)
	}
	vs := ps.Versions()
	if len(vs) != 4 {
		t.Fatalf("PinSet.Versions() = %d entries, want one per shard (4)", len(vs))
	}
	for i, v := range vs {
		if v == nil {
			t.Fatalf("PinSet.Versions()[%d] is nil", i)
		}
	}

	// Updates keep flowing while the pin is held — this is the pause that
	// no longer exists — and are visible the moment they are acked.
	setB := mkObjs(2_000_000, 100)
	if err := ix.Insert(setB...); err != nil {
		t.Fatal(err)
	}
	postDel := base[13]
	if found, err := ix.Delete(postDel.ID, postDel.Box); err != nil || !found {
		t.Fatalf("post-pin delete: found=%v err=%v", found, err)
	}
	live := universeIDs(t, ix)
	for _, o := range append(append([]geom.Object(nil), setA...), setB...) {
		if _, ok := live[o.ID]; !ok {
			t.Fatalf("acked insert %d invisible to live query while pin held", o.ID)
		}
	}
	if _, ok := live[postDel.ID]; ok {
		t.Fatalf("acked delete %d still visible while pin held", postDel.ID)
	}

	dir := t.TempDir()
	if err := ix.SnapshotPinnedFS(dir, faultfs.OS{}, ps); err != nil {
		t.Fatal(err)
	}
	ps.Release()

	re, err := Restore(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := universeIDs(t, re)
	for _, o := range setA {
		if _, ok := snap[o.ID]; !ok {
			t.Fatalf("pre-pin insert %d missing from pinned snapshot", o.ID)
		}
	}
	for _, o := range setB {
		if _, ok := snap[o.ID]; ok {
			t.Fatalf("post-pin insert %d leaked into pinned snapshot", o.ID)
		}
	}
	if _, ok := snap[preDel.ID]; ok {
		t.Fatalf("pre-pin delete %d resurrected in pinned snapshot", preDel.ID)
	}
	if _, ok := snap[postDel.ID]; !ok {
		t.Fatalf("post-pin delete %d applied to pinned snapshot", postDel.ID)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// All pins released: every sub-index must be back to a single version.
	if st := ix.Stats(); st.VersionsLive != st.Shards {
		t.Fatalf("versions live = %d after release, want %d (one per shard)",
			st.VersionsLive, st.Shards)
	}
}

// TestAckedWriteVisibility hammers the engine with writers and readers and
// holds the acked-writes contract: a reader that snapshots the acked set
// before querying must see every one of those inserts, and a writer that
// acked a delete never sees the object again.
func TestAckedWriteVisibility(t *testing.T) {
	const (
		writers      = 4
		opsPerWriter = 200
		readers      = 4
	)
	base := dataset.Uniform(3000, 23)
	ix := New(dataset.Clone(base), Config{Shards: 4})

	var ackMu sync.Mutex
	acked := make(map[int32]geom.Object) // acked inserts, removed on acked delete
	var done atomic.Bool

	var wgWriters, wgReaders sync.WaitGroup
	for w := 0; w < writers; w++ {
		wgWriters.Add(1)
		go func(w int) {
			defer wgWriters.Done()
			first := int32(1_000_000 * (w + 1))
			for i := 0; i < opsPerWriter; i++ {
				o := geom.Object{
					Box: geom.BoxAt(base[(w*opsPerWriter+i)%len(base)].Center(), 1),
					ID:  first + int32(i),
				}
				if err := ix.Insert(o); err != nil {
					t.Errorf("writer %d: insert: %v", w, err)
					return
				}
				ackMu.Lock()
				acked[o.ID] = o
				ackMu.Unlock()
				if i%3 == 0 {
					// Read-your-writes: the insert this client just acked
					// must be visible to its own next query.
					ids := ix.Query(o.Box, nil)
					seen := false
					for _, id := range ids {
						if id == o.ID {
							seen = true
							break
						}
					}
					if !seen {
						t.Errorf("writer %d: own acked insert %d invisible", w, o.ID)
						return
					}
				}
				if i%5 == 4 {
					// Delete an earlier own object; once acked it must stay
					// gone for this client.
					victim := first + int32(i-4)
					ackMu.Lock()
					vo, ok := acked[victim]
					ackMu.Unlock()
					if !ok {
						continue
					}
					// Remove from the acked set BEFORE the delete lands so a
					// concurrent reader that snapshots mid-delete does not
					// demand visibility of a half-deleted object.
					ackMu.Lock()
					delete(acked, victim)
					ackMu.Unlock()
					found, err := ix.Delete(victim, vo.Box)
					if err != nil || !found {
						t.Errorf("writer %d: delete %d: found=%v err=%v", w, victim, found, err)
						return
					}
					for _, id := range ix.Query(vo.Box, nil) {
						if id == victim {
							t.Errorf("writer %d: acked delete %d still visible", w, victim)
							return
						}
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wgReaders.Add(1)
		go func(r int) {
			defer wgReaders.Done()
			for !done.Load() {
				ackMu.Lock()
				want := make([]int32, 0, len(acked))
				for id := range acked {
					want = append(want, id)
				}
				ackMu.Unlock()
				got := universeIDs(t, ix)
				for _, id := range want {
					if _, ok := got[id]; ok {
						continue
					}
					// Writers withdraw an id from the acked set before
					// deleting it, so an id absent from the results is a
					// bug only if it is still acked after the read — a
					// delete racing the query excuses itself by the
					// withdrawal that preceded it.
					ackMu.Lock()
					_, still := acked[id]
					ackMu.Unlock()
					if still {
						t.Errorf("reader %d: insert %d acked before read started is invisible", r, id)
						return
					}
				}
			}
		}(r)
	}
	wgWriters.Wait()
	done.Store(true)
	wgReaders.Wait()
	if t.Failed() {
		return
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStressVersionedCheckpointMatrix extends the -race stress matrix with
// checkpoint pinning: queries, KNN probes, inserts, deletes and flushes run
// concurrently with PinVersions/SnapshotPinnedFS/Release cycles, on
// GOMAXPROCS 1 and 4. CheckInvariants — which asserts no version chain
// exceeds the GC horizon — closes every round, and quiescence must collapse
// every chain back to a single live version per shard.
func TestStressVersionedCheckpointMatrix(t *testing.T) {
	for _, procs := range []int{1, 4} {
		procs := procs
		t.Run(map[int]string{1: "GOMAXPROCS=1", 4: "GOMAXPROCS=4"}[procs], func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			base := dataset.Uniform(4000, 29)
			ix := New(dataset.Clone(base), Config{Shards: 2})
			boxes := workload.Uniform(dataset.Universe(), 100, 1e-3, 31)

			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					var buf []int32
					for i := r; i < len(boxes); i += 3 {
						buf = ix.Query(boxes[i], buf[:0])
						if _, err := ix.KNN(boxes[i].Center(), 5); err != nil {
							t.Errorf("reader %d: KNN: %v", r, err)
							return
						}
					}
				}(r)
			}
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(boxes); i += 2 {
						id := int32(3_000_000 + w*100_000 + i)
						obj := geom.Object{Box: geom.BoxAt(boxes[i].Center(), 1), ID: id}
						if err := ix.Insert(obj); err != nil {
							t.Errorf("writer %d: insert: %v", w, err)
							return
						}
						if _, err := ix.Delete(id, obj.Box); err != nil {
							t.Errorf("writer %d: delete: %v", w, err)
							return
						}
						if w == 0 && i%24 == 0 {
							if err := ix.Flush(); err != nil {
								t.Errorf("flush: %v", err)
								return
							}
						}
					}
				}(w)
			}
			wg.Add(1)
			go func() { // the checkpointer: pin → snapshot → release, repeatedly
				defer wg.Done()
				for i := 0; i < 6; i++ {
					ps, err := ix.PinVersions()
					if err != nil {
						t.Errorf("checkpoint %d: pin: %v", i, err)
						return
					}
					if i%2 == 0 {
						if err := ix.SnapshotPinnedFS(t.TempDir(), faultfs.OS{}, ps); err != nil {
							t.Errorf("checkpoint %d: snapshot: %v", i, err)
							ps.Release()
							return
						}
					}
					ps.Release()
					// The horizon invariant must hold mid-storm, not just at
					// the end.
					if err := ix.CheckInvariants(); err != nil {
						t.Errorf("checkpoint %d: invariants: %v", i, err)
						return
					}
				}
			}()
			wg.Wait()
			if t.Failed() {
				return
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := ix.Flush(); err != nil {
				t.Fatal(err)
			}
			if st := ix.Stats(); st.VersionsLive != st.Shards {
				t.Fatalf("versions live = %d after quiescence, want %d", st.VersionsLive, st.Shards)
			}
		})
	}
}
