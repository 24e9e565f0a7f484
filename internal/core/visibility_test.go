// The version-visibility harness: every read must see exactly the writes
// published at or before its pin, across cracks, checkpoints, flushes and
// concurrent load. Three layers of attack:
//
//   - A deterministic script runner interleaves inserts, shared and
//     exclusive deletes, cracking queries, shared queries, flushes and
//     checkpoint-style pins against a map oracle, auditing every pinned
//     version both structurally (lanes + pending minus tombstones) and
//     through the pinned query walk, and round-tripping pinned versions
//     through SaveVersion/Load to prove a checkpoint recovers the pinned
//     state, not the live one.
//   - A concurrent test runs writers, pinned readers and an exclusive
//     cracker/flusher under the shard-style RWMutex discipline, logging the
//     publishing sequence of every acked write; afterwards each read's
//     snapshot is replayed against the log — the visible set at pin seq S
//     must be exactly {inserts ≤ S} minus {deletes ≤ S}.
//   - FuzzVersionVisibility feeds the script runner fuzzer-chosen seeds,
//     lengths and τ.

package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// visibleIDs computes a version's visible set structurally: lane membership
// plus pending entries, minus tombstones. Lane membership is stable under
// the shared lock even while cracking reorders rows, so this is the ground
// truth a pinned reader must observe.
func visibleIDs(v *Version) []int32 {
	objs := visibleObjects(v)
	ids := make([]int32, len(objs))
	for i := range objs {
		ids[i] = objs[i].ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// visibleObjects is v's visible object set: lane rows plus pending objects,
// minus tombstoned IDs.
func visibleObjects(v *Version) []geom.Object {
	var objs []geom.Object
	for i := 0; i < v.table.Len(); i++ {
		if !v.deleted.Has(v.table.ID[i]) {
			objs = append(objs, v.table.ObjectAt(i))
		}
	}
	for _, o := range v.pending {
		if !v.deleted.Has(o.ID) {
			objs = append(objs, o)
		}
	}
	return objs
}

func genVisObjects(rng *rand.Rand, n int, firstID int32) []geom.Object {
	objs := make([]geom.Object, n)
	for i := range objs {
		var min, max geom.Point
		for d := 0; d < geom.Dims; d++ {
			min[d] = rng.Float64() * 1000
			max[d] = min[d] + rng.Float64()*rng.Float64()*200
		}
		objs[i] = geom.Object{Box: geom.Box{Min: min, Max: max}, ID: firstID + int32(i)}
	}
	return objs
}

func randVisBox(rng *rand.Rand) geom.Box {
	var a, b geom.Point
	for d := 0; d < geom.Dims; d++ {
		a[d] = rng.Float64()*1200 - 100
		b[d] = a[d] + rng.Float64()*300
	}
	return geom.Box{Min: a, Max: b}
}

func oracleQueryIDs(oracle map[int32]geom.Object, q geom.Box) []int32 {
	ids := make([]int32, 0, len(oracle))
	for id, o := range oracle {
		if o.Intersects(q) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func oracleAllIDs(oracle map[int32]geom.Object) []int32 {
	ids := make([]int32, 0, len(oracle))
	for id := range oracle {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func cloneOracle(oracle map[int32]geom.Object) map[int32]geom.Object {
	c := make(map[int32]geom.Object, len(oracle))
	for id, o := range oracle {
		c[id] = o
	}
	return c
}

// auditPin verifies a pinned version against the oracle captured at pin
// time: the structural visible set must match exactly, and whenever the
// pinned query walk can answer (the touched region is refined), its answer
// must match too — for the universe and for random boxes.
func auditPin(t *testing.T, rng *rand.Rand, ix *Index, v *Version, want map[int32]geom.Object, step int) {
	t.Helper()
	wantIDs := oracleAllIDs(want)
	if got := visibleIDs(v); !equalIDs(got, wantIDs) {
		t.Fatalf("step %d: pinned version seq %d sees %d ids, oracle has %d",
			step, v.Seq(), len(got), len(wantIDs))
	}
	if got, ok := ix.queryAtVersion(v, geom.UniverseBox(), nil); ok {
		if !equalIDs(sortedIDs(got), wantIDs) {
			t.Fatalf("step %d: pinned universe query at seq %d returned %d ids, oracle has %d",
				step, v.Seq(), len(got), len(wantIDs))
		}
	}
	for i := 0; i < 3; i++ {
		q := randVisBox(rng)
		got, ok := ix.queryAtVersion(v, q, nil)
		if !ok {
			continue // region still unrefined: the exclusive path owns it
		}
		if want := oracleQueryIDs(want, q); !equalIDs(sortedIDs(got), want) {
			t.Fatalf("step %d: pinned box query at seq %d returned %d ids, oracle says %d",
				step, v.Seq(), len(got), len(want))
		}
	}
}

// runVisibilityScript is the deterministic interleaving harness shared by
// the table test and the fuzz target.
func runVisibilityScript(t *testing.T, seed int64, steps, tau int) {
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(200) + 50
	data := genVisObjects(rng, n, 0)
	oracle := make(map[int32]geom.Object, n)
	for _, o := range data {
		oracle[o.ID] = o
	}
	ix := New(dataset.Clone(data), Config{Tau: tau})
	nextID := int32(n)
	lastSeq := ix.DataVersion()

	type pinRec struct {
		v    *Version
		want map[int32]geom.Object
	}
	var pins []pinRec

	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 25: // insert a batch through the versioned writer
			k := rng.Intn(3) + 1
			objs := genVisObjects(rng, k, nextID)
			nextID += int32(k)
			seq := ix.AppendVersioned(objs...)
			if seq <= lastSeq {
				t.Fatalf("step %d: append published seq %d after %d", step, seq, lastSeq)
			}
			lastSeq = seq
			for _, o := range objs {
				oracle[o.ID] = o
			}
		case r < 40: // delete a live object, shared path with escalation
			ids := oracleAllIDs(oracle)
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			hint := oracle[id].Box
			seq, found, ok := ix.deleteSeq(id, hint, (*Index).positionsShared)
			if !ok {
				// Unrefined region: escalate to the exclusive path, exactly
				// like the shard layer does.
				found = ix.Delete(id, hint)
				seq = ix.DataVersion()
			}
			if !found {
				t.Fatalf("step %d: live id %d not found by delete", step, id)
			}
			if seq <= lastSeq {
				t.Fatalf("step %d: delete published seq %d after %d", step, seq, lastSeq)
			}
			lastSeq = seq
			delete(oracle, id)
		case r < 58: // cracking query: refines and must match the oracle
			q := randVisBox(rng)
			got := sortedIDs(ix.Query(q, nil))
			if want := oracleQueryIDs(oracle, q); !equalIDs(got, want) {
				t.Fatalf("step %d: cracking query got %d ids, want %d", step, len(got), len(want))
			}
		case r < 72: // shared query: when it answers, it answers exactly
			q := randVisBox(rng)
			got, ok := ix.QueryShared(q, nil)
			if ok {
				if want := oracleQueryIDs(oracle, q); !equalIDs(sortedIDs(got), want) {
					t.Fatalf("step %d: shared query got %d ids, want %d", step, len(got), len(want))
				}
			}
		case r < 80: // flush: folds deltas into the hierarchy, bumps seq
			ix.Flush()
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("step %d: invariants after Flush: %v", step, err)
			}
			lastSeq = ix.DataVersion()
		case r < 92: // checkpoint start: pin the live version, freeze the oracle
			pins = append(pins, pinRec{ix.PinVersion(), cloneOracle(oracle)})
		default: // checkpoint body: audit, serialize, recover, compare, release
			if len(pins) == 0 {
				continue
			}
			i := rng.Intn(len(pins))
			p := pins[i]
			auditPin(t, rng, ix, p.v, p.want, step)
			var buf bytes.Buffer
			if err := ix.SaveVersion(&buf, p.v); err != nil {
				t.Fatalf("step %d: SaveVersion: %v", step, err)
			}
			re, err := Load(&buf)
			if err != nil {
				t.Fatalf("step %d: Load: %v", step, err)
			}
			got := sortedIDs(re.Query(geom.UniverseBox(), nil))
			if want := oracleAllIDs(p.want); !equalIDs(got, want) {
				t.Fatalf("step %d: recovered checkpoint has %d ids, pinned oracle has %d",
					step, len(got), len(want))
			}
			p.v.Release()
			pins = append(pins[:i], pins[i+1:]...)
		}
	}

	// Drain outstanding pins with a final audit each: a pin taken 300 steps
	// ago must still see exactly its own oracle.
	for _, p := range pins {
		auditPin(t, rng, ix, p.v, p.want, steps)
		p.v.Release()
	}
	if lv := ix.LiveVersions(); lv != 1 {
		t.Fatalf("live versions after releasing all pins = %d, want 1 (leaked version)", lv)
	}
	got := sortedIDs(ix.Query(geom.UniverseBox(), nil))
	if want := oracleAllIDs(oracle); !equalIDs(got, want) {
		t.Fatalf("final state has %d ids, oracle has %d", len(got), len(want))
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestVersionAccessors pins a version mid-delta and checks the exported
// view of its state: delta sizes, the public DeleteShared wrapper, and the
// live head the accessors read through.
func TestVersionAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ix := New(genVisObjects(rng, 50, 0), Config{Tau: 8})
	pendingObjs := genVisObjects(rng, 3, 100)
	ix.AppendVersioned(pendingObjs...)
	if found, ok := ix.DeleteShared(pendingObjs[0].ID, pendingObjs[0].Box); !found || !ok {
		t.Fatalf("DeleteShared(pending) = (%v, %v), want (true, true)", found, ok)
	}
	v := ix.PinVersion()
	defer v.Release()
	if v != ix.liveVersion() {
		t.Fatal("PinVersion did not return the live head")
	}
	if v.PendingLen() != 3 {
		t.Fatalf("PendingLen = %d, want 3 (tombstoned pending entries stay until Flush)", v.PendingLen())
	}
	if v.DeletedLen() != 1 {
		t.Fatalf("DeletedLen = %d, want 1", v.DeletedLen())
	}
	if found, ok := ix.DeleteShared(pendingObjs[0].ID, pendingObjs[0].Box); found || !ok {
		t.Fatalf("double DeleteShared = (%v, %v), want (false, true)", found, ok)
	}
}

func TestVersionVisibilityScript(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runVisibilityScript(t, seed, 400, int(seed%50)+4)
		})
	}
}

// FuzzVersionVisibility explores random interleavings of
// insert/delete/query/checkpoint/crack/flush steps against the snapshot
// oracle. Run `go test -fuzz=FuzzVersionVisibility ./internal/core` to go
// beyond the seed corpus.
func FuzzVersionVisibility(f *testing.F) {
	f.Add(int64(1), 100, 8)
	f.Add(int64(2), 300, 1)
	f.Add(int64(3), 50, 60)
	f.Add(int64(4), 250, 16)

	f.Fuzz(func(t *testing.T, seed int64, steps, tau int) {
		if steps < 0 {
			steps = -steps
		}
		steps = steps%400 + 20
		if tau < 1 {
			tau = 1
		}
		tau = tau%200 + 1
		runVisibilityScript(t, seed, steps, tau)
	})
}

// TestVersionVisibilityConcurrent runs versioned writers, pinned readers
// and an exclusive cracker/flusher under the shard-style RWMutex
// discipline. Every write logs the sequence number its publish returned;
// every read records the pinned seq and the visible set it observed. The
// replay then holds each read to the exact standard: visible(S) ==
// {initial} ∪ {inserts ≤ S} \ {deletes ≤ S}.
func TestVersionVisibilityConcurrent(t *testing.T) {
	const (
		writers      = 4
		readers      = 4
		opsPerWriter = 250
		readsPerGo   = 150
	)
	rng := rand.New(rand.NewSource(99))
	initial := genVisObjects(rng, 200, 0)
	ix := New(dataset.Clone(initial), Config{Tau: 16})
	// Pre-crack so a good fraction of pinned query walks can answer.
	for i := 0; i < 40; i++ {
		ix.Query(randVisBox(rng), nil)
	}

	var mu sync.RWMutex // plays the shard's per-shard RWMutex
	type opRec struct {
		seq uint64
		id  int32
		del bool
	}
	type readRec struct {
		seq uint64
		ids []int32
	}
	var logMu sync.Mutex
	oplog := make([]opRec, 0, writers*opsPerWriter)
	reads := make([]readRec, 0, readers*readsPerGo)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			base := int32(10000 * (w + 1)) // private ID range per writer
			var mine []geom.Object
			next := base
			for i := 0; i < opsPerWriter; i++ {
				if rng.Intn(3) != 0 || len(mine) == 0 {
					o := genVisObjects(rng, 1, next)[0]
					next++
					mu.RLock()
					seq := ix.AppendVersioned(o)
					mu.RUnlock()
					logMu.Lock()
					oplog = append(oplog, opRec{seq, o.ID, false})
					logMu.Unlock()
					mine = append(mine, o)
				} else {
					j := rng.Intn(len(mine))
					o := mine[j]
					mu.RLock()
					seq, found, ok := ix.deleteSeq(o.ID, o.Box, (*Index).positionsShared)
					mu.RUnlock()
					if !ok {
						mu.Lock()
						found = ix.Delete(o.ID, o.Box)
						seq = ix.DataVersion()
						mu.Unlock()
					}
					if !found {
						t.Errorf("writer %d: own live id %d not found by delete", w, o.ID)
						return
					}
					logMu.Lock()
					oplog = append(oplog, opRec{seq, o.ID, true})
					logMu.Unlock()
					mine = append(mine[:j], mine[j+1:]...)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			local := make([]readRec, 0, readsPerGo)
			for i := 0; i < readsPerGo; i++ {
				mu.RLock()
				v := ix.PinVersion()
				ids := visibleIDs(v)
				// The pinned query walk, raced against live writers, must
				// agree with the structural set whenever it can answer.
				if q, ok := ix.queryAtVersion(v, geom.UniverseBox(), nil); ok {
					if !equalIDs(sortedIDs(q), ids) {
						t.Errorf("reader %d: pinned walk at seq %d returned %d ids, structural set has %d",
							r, v.Seq(), len(q), len(ids))
					}
				}
				v.Release()
				mu.RUnlock()
				local = append(local, readRec{v.Seq(), ids})
			}
			logMu.Lock()
			reads = append(reads, local...)
			logMu.Unlock()
		}(r)
	}
	wg.Add(1)
	go func() { // the exclusive path: cracking queries and flushes
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 120; i++ {
			mu.Lock()
			if i%29 == 28 {
				ix.Flush()
			} else {
				ix.Query(randVisBox(rng), nil)
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Replay: each publish got a unique sequence, so sorting the log by seq
	// reconstructs the exact write history.
	sort.Slice(oplog, func(i, j int) bool { return oplog[i].seq < oplog[j].seq })
	for i := 1; i < len(oplog); i++ {
		if oplog[i].seq == oplog[i-1].seq {
			t.Fatalf("two writes published the same seq %d", oplog[i].seq)
		}
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].seq < reads[j].seq })
	oracle := make(map[int32]struct{}, len(initial))
	for _, o := range initial {
		oracle[o.ID] = struct{}{}
	}
	next := 0
	for _, rd := range reads {
		for next < len(oplog) && oplog[next].seq <= rd.seq {
			if oplog[next].del {
				delete(oracle, oplog[next].id)
			} else {
				oracle[oplog[next].id] = struct{}{}
			}
			next++
		}
		want := make([]int32, 0, len(oracle))
		for id := range oracle {
			want = append(want, id)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !equalIDs(rd.ids, want) {
			t.Fatalf("read pinned at seq %d saw %d ids, oracle replay says %d",
				rd.seq, len(rd.ids), len(want))
		}
	}

	if lv := ix.LiveVersions(); lv != 1 {
		t.Fatalf("live versions after quiescence = %d, want 1", lv)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}
