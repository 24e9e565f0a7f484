package shard

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/telemetry"
)

// bomb is a real QUASII sub-index whose probes can be armed to panic,
// standing in for a corrupted structure. It embeds *core.Index — so a
// disarmed bomb is exactly what production runs — and overrides the four
// read-locked entry points (QueryShared, Append, DeleteShared, KNNShared)
// and the write-locked ones (QueryBudgeted, DeleteBudgeted, KNNBudgeted,
// Flush, Complete). On the tiny unconverged test data every shared walk
// reports "needs refinement", so arming only an exclusive method drives the
// engine through the full probe ladder before it trips.
type bomb struct {
	*core.Index
	objs []geom.Object // build-time contents, for bombFor

	armQueryShared, armAppend, armDeleteShared, armKNNShared bool
	armQuery, armDelete, armKNN, armFlush, armComplete       bool
}

func (b *bomb) Flush() {
	if b.armFlush {
		panic("bomb: flush")
	}
	b.Index.Flush()
}

func (b *bomb) Complete() {
	if b.armComplete {
		panic("bomb: complete")
	}
	b.Index.Complete()
}

func (b *bomb) QueryShared(q geom.Box, out []int32) ([]int32, bool) {
	if b.armQueryShared {
		panic("bomb: shared query")
	}
	return b.Index.QueryShared(q, out)
}

func (b *bomb) QueryBudgeted(q geom.Box, out []int32, budget int) []int32 {
	if b.armQuery {
		panic("bomb: query")
	}
	return b.Index.QueryBudgeted(q, out, budget)
}

func (b *bomb) Append(objs ...geom.Object) {
	if b.armAppend {
		panic("bomb: append")
	}
	b.Index.Append(objs...)
}

func (b *bomb) DeleteShared(id int32, hint geom.Box) (found, ok bool) {
	if b.armDeleteShared {
		panic("bomb: shared delete")
	}
	return b.Index.DeleteShared(id, hint)
}

func (b *bomb) DeleteBudgeted(id int32, hint geom.Box, budget int) bool {
	if b.armDelete {
		panic("bomb: delete")
	}
	return b.Index.DeleteBudgeted(id, hint, budget)
}

func (b *bomb) KNNShared(p geom.Point, k int) ([]core.Neighbor, bool) {
	if b.armKNNShared {
		panic("bomb: shared knn")
	}
	return b.Index.KNNShared(p, k)
}

func (b *bomb) KNNBudgeted(p geom.Point, k, budget int) []core.Neighbor {
	if b.armKNN {
		panic("bomb: knn")
	}
	return b.Index.KNNBudgeted(p, k, budget)
}

// bombObjects builds two well-separated clusters so a 2-shard STR partition
// puts IDs 1..4 in one shard and 11..14 in the other.
func bombObjects() []geom.Object {
	var objs []geom.Object
	for i := 0; i < 4; i++ {
		objs = append(objs, geom.Object{Box: geom.BoxAt(geom.Point{float64(i), 0, 0}, 0.4), ID: int32(1 + i)})
		objs = append(objs, geom.Object{Box: geom.BoxAt(geom.Point{float64(100 + i), 0, 0}, 0.4), ID: int32(11 + i)})
	}
	return objs
}

// bombIndex builds a 2-shard engine over bombObjects with bomb sub-indexes
// (through newIndex's build hook) and returns the engine plus the
// constructed bombs in build order.
func bombIndex(t *testing.T) (*Index, []*bomb) {
	t.Helper()
	var bombs []*bomb
	ix := newIndex(bombObjects(), Config{Shards: 2}, func(data []geom.Object) subIndex {
		b := &bomb{Index: core.New(data, core.Config{}), objs: append([]geom.Object(nil), data...)}
		bombs = append(bombs, b)
		return b
	})
	if len(bombs) != 2 || ix.NumShards() != 2 {
		t.Fatalf("want 2 bomb shards, got %d shards, %d bombs", ix.NumShards(), len(bombs))
	}
	return ix, bombs
}

// bombFor finds the bomb holding the given ID.
func bombFor(t *testing.T, bombs []*bomb, id int32) *bomb {
	t.Helper()
	for _, b := range bombs {
		for _, o := range b.objs {
			if o.ID == id {
				return b
			}
		}
	}
	t.Fatalf("no bomb holds id %d", id)
	return nil
}

func idSet(ids []int32) map[int32]bool {
	m := make(map[int32]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func TestQueryPanicQuarantinesShard(t *testing.T) {
	ix, bombs := bombIndex(t)
	all := geom.BoxAt(geom.Point{50, 0, 0}, 1000)

	bad := bombFor(t, bombs, 1)
	bad.armQuery = true
	got := idSet(ix.Query(all, nil))
	if got[1] || got[2] {
		t.Fatalf("results include objects from the panicking shard: %v", got)
	}
	for _, id := range []int32{11, 12, 13, 14} {
		if !got[id] {
			t.Fatalf("healthy shard's object %d missing: %v", id, got)
		}
	}
	if q := ix.Stats().Quarantined; q != 1 {
		t.Fatalf("Quarantined() = %d, want 1", q)
	}
	if st := ix.Stats(); st.Quarantined != 1 {
		t.Fatalf("Stats().Quarantined = %d, want 1", st.Quarantined)
	}

	// Disarming does not heal: quarantine is sticky until rebuild.
	bad.armQuery = false
	if got := idSet(ix.Query(all, nil)); got[1] {
		t.Fatalf("quarantined shard served a query after disarm: %v", got)
	}
	if n := ix.Len(); n != 4 {
		t.Fatalf("Len() = %d, want 4 (quarantined shard excluded)", n)
	}

	// /debug/index drops the quarantined shard 0; the survivor keeps its
	// own index as its name.
	rep := ix.Inspect(1)
	if len(rep.Tiles) != 1 || rep.Tiles[0].Shard != "1" || rep.Tiles[0].Objects != 4 {
		t.Fatalf("Inspect after quarantine = %+v, want the single tile \"1\" holding 4 objects", rep.Tiles)
	}
}

func TestSnapshotRefusedWhenQuarantined(t *testing.T) {
	ix, bombs := bombIndex(t)
	bombFor(t, bombs, 1).armQuery = true
	ix.Query(geom.BoxAt(geom.Point{0, 0, 0}, 10), nil) // trip the quarantine
	err := ix.Snapshot(t.TempDir())
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Snapshot with quarantined shard: %v, want ErrQuarantined", err)
	}
}

func TestInsertRoutesAroundQuarantinedShard(t *testing.T) {
	ix, bombs := bombIndex(t)
	bad := bombFor(t, bombs, 1)
	bad.armQuery = true
	ix.Query(geom.BoxAt(geom.Point{0, 0, 0}, 10), nil)
	bad.armQuery = false

	// The object's center lies in the quarantined shard's tile; routing must
	// fall through to the next-nearest healthy shard and still serve it.
	obj := geom.Object{Box: geom.BoxAt(geom.Point{1, 0, 0}, 0.4), ID: 99}
	if err := ix.Insert(obj); err != nil {
		t.Fatalf("Insert around quarantined shard: %v", err)
	}
	if got := idSet(ix.Query(obj.Box, nil)); !got[99] {
		t.Fatalf("rerouted insert invisible to queries: %v", got)
	}

	// With every shard quarantined there is nowhere left to route.
	good := bombFor(t, bombs, 11)
	good.armQuery = true
	ix.Query(geom.BoxAt(geom.Point{100, 0, 0}, 10), nil)
	if q := ix.Stats().Quarantined; q != 2 {
		t.Fatalf("Quarantined() = %d, want 2", q)
	}
	err := ix.Insert(geom.Object{Box: geom.BoxAt(geom.Point{101, 0, 0}, 0.4), ID: 100})
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Insert with every shard quarantined: %v, want ErrQuarantined", err)
	}
}

func TestAppendPanicReturnsErrQuarantined(t *testing.T) {
	ix, bombs := bombIndex(t)
	bombFor(t, bombs, 1).armAppend = true
	err := ix.Insert(geom.Object{Box: geom.BoxAt(geom.Point{1, 0, 0}, 0.4), ID: 99})
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Insert into panicking shard: %v, want ErrQuarantined", err)
	}
	if q := ix.Stats().Quarantined; q != 1 {
		t.Fatalf("Quarantined() = %d, want 1", q)
	}
}

func TestDeletePanicProbesRemainingShards(t *testing.T) {
	ix, bombs := bombIndex(t)
	bombFor(t, bombs, 1).armDelete = true
	// Hint spans both shards; the panicking one is probed first (shard
	// order), quarantines itself, and the delete still lands in the other.
	found, err := ix.Delete(11, geom.BoxAt(geom.Point{50, 0, 0}, 1000))
	if err != nil || !found {
		t.Fatalf("Delete across panicking shard: found=%v err=%v", found, err)
	}
	if q := ix.Stats().Quarantined; q != 1 {
		t.Fatalf("Quarantined() = %d, want 1", q)
	}
}

func TestKNNSkipsPanickingShard(t *testing.T) {
	ix, bombs := bombIndex(t)
	bombFor(t, bombs, 1).armKNN = true
	// Query point sits in the panicking shard's cluster: that shard probes
	// first, panics, and KNN must still answer from the healthy one.
	got, err := ix.KNN(geom.Point{0, 0, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != 11 || got[1].ID != 12 {
		t.Fatalf("KNN after panic = %+v, want IDs 11, 12", got)
	}
	if q := ix.Stats().Quarantined; q != 1 {
		t.Fatalf("Quarantined() = %d, want 1", q)
	}
}

// TestReadLockedProbesQuarantine arms each read-locked probe in turn — the
// probes every production request enters first — plus the write-locked
// Flush and Complete, and proves the panic is recovered inside the guard:
// the shard is quarantined, its lock is released (it can be taken for
// writing), and the other shard keeps answering. The first four labels name
// the per-probe helpers the one guard replaced; they are kept because the
// test floor lists them.
func TestReadLockedProbesQuarantine(t *testing.T) {
	all := geom.BoxAt(geom.Point{50, 0, 0}, 1000)
	for _, tc := range []struct {
		name string
		arm  func(b *bomb)
		trip func(t *testing.T, ix *Index)
	}{
		{"sharedProbe", func(b *bomb) { b.armQueryShared = true }, func(t *testing.T, ix *Index) {
			if got := idSet(ix.Query(all, nil)); got[1] || !got[11] {
				t.Fatalf("query across a panicking shared probe = %v", got)
			}
		}},
		{"appendSharedProbe", func(b *bomb) { b.armAppend = true }, func(t *testing.T, ix *Index) {
			err := ix.Insert(geom.Object{Box: geom.BoxAt(geom.Point{1, 0, 0}, 0.4), ID: 99})
			if !errors.Is(err, ErrQuarantined) {
				t.Fatalf("Insert into panicking shard: %v, want ErrQuarantined", err)
			}
		}},
		{"deleteSharedProbe", func(b *bomb) { b.armDeleteShared = true }, func(t *testing.T, ix *Index) {
			if found, err := ix.Delete(11, all); err != nil || !found {
				t.Fatalf("Delete across a panicking shared probe: found=%v err=%v", found, err)
			}
		}},
		{"knnSharedProbe", func(b *bomb) { b.armKNNShared = true }, func(t *testing.T, ix *Index) {
			got, err := ix.KNN(geom.Point{0, 0, 0}, 2)
			if err != nil || len(got) != 2 || got[0].ID != 11 || got[1].ID != 12 {
				t.Fatalf("KNN across a panicking shared probe = %+v, %v", got, err)
			}
		}},
		// At the parent these two crash the test binary: Flush and Complete
		// ran the sub-index outside panic isolation, with the lock held.
		{"flush", func(b *bomb) { b.armFlush = true }, func(t *testing.T, ix *Index) {
			if err := ix.Insert(geom.Object{Box: geom.BoxAt(geom.Point{101, 0, 0}, 0.4), ID: 55}); err != nil {
				t.Fatal(err)
			}
			if err := ix.Flush(); err != nil {
				t.Fatalf("Flush across a panicking shard: %v", err)
			}
			if n := ix.Pending(); n != 0 {
				t.Fatalf("healthy shard not flushed past the panicking one: Pending() = %d", n)
			}
		}},
		{"complete", func(b *bomb) { b.armComplete = true }, func(t *testing.T, ix *Index) {
			ix.Complete()
			far := geom.BoxAt(geom.Point{100, 0, 0}, 10)
			var hit [1]*shardEntry
			if sh := ix.overlapping(far, hit[:0]); len(sh) != 1 || !sh[0].sub.Inspect(0).Converged {
				t.Fatal("healthy shard not completed past the panicking one")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, bombs := bombIndex(t)
			reg := telemetry.NewRegistry()
			ix.Instrument(reg)
			tc.arm(bombFor(t, bombs, 1))
			tc.trip(t, ix)
			if q := ix.Stats().Quarantined; q != 1 {
				t.Fatalf("Quarantined() = %d, want 1", q)
			}
			if v := ix.mPanics.Value(); v != 1 {
				t.Fatalf("quasii_shard_panics_total = %d, want 1", v)
			}
			// The poisoned shard's lock must be free: take it for writing.
			for _, sh := range ix.shards {
				sh.mu.Lock()
				sh.mu.Unlock()
			}
			// The healthy shard still answers reads and accepts writes.
			far := geom.BoxAt(geom.Point{100, 0, 0}, 10)
			if got := idSet(ix.Query(far, nil)); !got[12] || !got[13] || !got[14] {
				t.Fatalf("healthy shard stopped answering: %v", got)
			}
			if err := ix.Insert(geom.Object{Box: geom.BoxAt(geom.Point{101, 0, 0}, 0.4), ID: 77}); err != nil {
				t.Fatalf("healthy shard refused an insert: %v", err)
			}
			if got := idSet(ix.Query(far, nil)); !got[77] {
				t.Fatalf("insert into the healthy shard invisible: %v", got)
			}
		})
	}
}

func TestPanicMetrics(t *testing.T) {
	ix, bombs := bombIndex(t)
	reg := telemetry.NewRegistry()
	ix.Instrument(reg)
	bombFor(t, bombs, 1).armQuery = true
	ix.Query(geom.BoxAt(geom.Point{0, 0, 0}, 10), nil)

	if v := ix.mPanics.Value(); v != 1 {
		t.Fatalf("quasii_shard_panics_total = %d, want 1", v)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "quasii_shard_quarantined_shards 1") {
		t.Fatalf("scrape missing quarantined gauge = 1:\n%s", sb.String())
	}
}

// TestQueryCtx covers the context-aware entry points: a non-cancellable
// context matches the plain path exactly, a pre-cancelled one fails fast,
// and cancellation surfaces from batch and KNN variants too.
func TestQueryCtx(t *testing.T) {
	ix, _ := bombIndex(t)
	all := geom.BoxAt(geom.Point{50, 0, 0}, 1000)

	plain := idSet(ix.Query(all, nil))
	got, err := ix.QueryCtx(context.Background(), all, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g := idSet(got); len(g) != len(plain) {
		t.Fatalf("QueryCtx(Background) = %v, plain = %v", g, plain)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.QueryCtx(cancelled, all, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryCtx(cancelled) err = %v, want context.Canceled", err)
	}
	if _, err := ix.QueryBatchCtx(cancelled, []geom.Box{all, all}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryBatchCtx(cancelled) err = %v, want context.Canceled", err)
	}
	if _, err := ix.KNNCtx(cancelled, geom.Point{0, 0, 0}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("KNNCtx(cancelled) err = %v, want context.Canceled", err)
	}

	res, err := ix.QueryBatchCtx(context.Background(), []geom.Box{all}, nil)
	if err != nil || len(res) != 1 || len(res[0]) != 8 {
		t.Fatalf("QueryBatchCtx(Background): res=%v err=%v", res, err)
	}
	nb, err := ix.KNNCtx(context.Background(), geom.Point{0, 0, 0}, 1)
	if err != nil || len(nb) != 1 || nb[0].ID != 1 {
		t.Fatalf("KNNCtx(Background): %+v err=%v", nb, err)
	}
}

// TestQueryCtxDeadlineMidFanout drives the real cancellable fan-out path
// (not the delegating fast path) and checks a cancel observed mid-merge
// still returns every pooled buffer and reports the error.
func TestQueryCtxMidFlight(t *testing.T) {
	ix, _ := bombIndex(t)
	all := geom.BoxAt(geom.Point{50, 0, 0}, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Not yet cancelled: the cancellable path must produce full results.
	got, err := ix.QueryCtx(ctx, all, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("cancellable path returned %d IDs, want 8", len(got))
	}
}
