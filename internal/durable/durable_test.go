package durable

import (
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/geom"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/internal/workload"
)

func sortedCopy(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameIDs(a, b []int32) bool {
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

// TestCrashRecoveryEquivalence is the kill-restart oracle test: a durable
// store takes mixed concurrent traffic (readers querying, writers running
// insert/delete streams over disjoint ID ranges), is then abandoned without
// Close — the in-process equivalent of a hard stop, legitimate because
// FsyncAlways makes every acknowledged update durable before it returns —
// and reopened from disk. Every query against the reopened store must match
// a never-restarted oracle engine that received exactly the same updates.
// Run under -race: the reader/writer phase is genuinely concurrent.
func TestCrashRecoveryEquivalence(t *testing.T) {
	data := dataset.Uniform(6000, 81)
	dir := t.TempDir()
	store, err := Open(dir, Options{
		Shard:     shard.Config{Shards: 4},
		Bootstrap: func() []geom.Object { return data },
		Fsync:     FsyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := shard.New(data, shard.Config{Shards: 4})

	queries := workload.Uniform(dataset.Universe(), 150, 1e-3, 82)
	const writers, readers, opsPerWriter = 3, 3, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int32(1_000_000 + w*100_000) // disjoint ID range per writer
			for i := 0; i < opsPerWriter; i++ {
				id := base + int32(i)
				obj := geom.Object{Box: geom.BoxAt(queries[(w*opsPerWriter+i)%len(queries)].Center(), 2), ID: id}
				if err := store.Insert(obj); err != nil {
					t.Error(err)
					return
				}
				if err := oracle.Insert(obj); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 { // delete a third of them again
					if _, err := store.Delete(id, obj.Box); err != nil {
						t.Error(err)
						return
					}
					if _, err := oracle.Delete(id, obj.Box); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				store.Index().Query(queries[(r*200+i)%len(queries)], nil)
			}
		}(r)
	}
	wg.Wait()

	// Hard stop: no Close, no final checkpoint. Recovery must come from the
	// bootstrap snapshot plus the WAL tail alone.
	if store.Seq() != 1 {
		t.Fatalf("unexpected checkpoint during run: seq %d", store.Seq())
	}
	if store.WALSize() == 0 {
		t.Fatal("WAL empty after writes")
	}

	reopened, err := Open(dir, Options{
		Shard: shard.Config{Shards: 4},
		Bootstrap: func() []geom.Object {
			t.Error("bootstrap called on reopen: snapshot not found")
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()

	if got, want := reopened.Index().Len(), oracle.Len(); got != want {
		t.Fatalf("recovered Len %d, oracle %d", got, want)
	}
	for qi, q := range queries {
		got := sortedCopy(reopened.Index().Query(q, nil))
		want := sortedCopy(oracle.Query(q, nil))
		if !sameIDs(got, want) {
			t.Fatalf("query %d after recovery: got %d IDs, oracle %d", qi, len(got), len(want))
		}
	}
	// The recovered store is a full citizen: more updates, checkpoint, reopen.
	if err := reopened.Insert(geom.Object{Box: geom.BoxAt(geom.Point{9, 9, 9}, 1), ID: 2_000_001}); err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir, Options{
		Shard:     shard.Config{Shards: 2},
		Bootstrap: func() []geom.Object { return dataset.Uniform(500, 83) },
		Fsync:     FsyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 20; i++ {
		if err := store.Insert(geom.Object{Box: geom.BoxAt(geom.Point{float64(i), 1, 1}, 1), ID: 500_000 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if store.WALSize() == 0 {
		t.Fatal("WAL empty before checkpoint")
	}
	seq, err := store.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("checkpoint seq %d, want 2", seq)
	}
	if store.WALSize() != 0 {
		t.Fatalf("WAL size %d after checkpoint, want 0", store.WALSize())
	}
	// The previous generation stays within the retention window (default
	// keeps the last 2, so a bootstrapping follower can finish streaming
	// it)...
	if _, err := os.Stat(filepath.Join(dir, snapDirName(1))); err != nil {
		t.Fatalf("generation 1 should be retained after one checkpoint: %v", err)
	}
	// ...and a second checkpoint pushes it out: only generations 2 and 3
	// remain.
	if _, err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapDirName(1))); !os.IsNotExist(err) {
		t.Fatalf("generation 1 snapshot still present after falling out of retention: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, walName(1))); !os.IsNotExist(err) {
		t.Fatalf("generation 1 wal still present after falling out of retention: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapDirName(2))); err != nil {
		t.Fatalf("generation 2 should be retained: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir, Options{Shard: shard.Config{Shards: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got := reopened.Index().Query(geom.BoxAt(geom.Point{5, 1, 1}, 0.5), nil)
	found := false
	for _, id := range got {
		if id == 500_005 {
			found = true
		}
	}
	if !found {
		t.Fatal("post-checkpoint reopen lost an inserted object")
	}
}

func TestAutomaticCheckpoint(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir, Options{
		Shard:           shard.Config{Shards: 2},
		Bootstrap:       func() []geom.Object { return dataset.Uniform(300, 84) },
		Fsync:           FsyncNever,
		CheckpointEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for i := int32(0); i < 25; i++ {
		if err := store.Insert(geom.Object{Box: geom.BoxAt(geom.Point{1, 2, 3}, 1), ID: 600_000 + i}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for store.Seq() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no automatic checkpoint after threshold (seq %d)", store.Seq())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCloseThenReopenNeedsNoWAL(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir, Options{
		Shard:     shard.Config{Shards: 2},
		Bootstrap: func() []geom.Object { return dataset.Uniform(400, 85) },
		Fsync:     FsyncInterval,
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := geom.Object{Box: geom.BoxAt(geom.Point{7, 7, 7}, 1), ID: 700_001}
	if err := store.Insert(obj); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != ErrClosed {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}
	if err := store.Insert(obj); err != ErrClosed {
		t.Fatalf("Insert after Close: %v, want ErrClosed", err)
	}

	seq, ok, err := readCurrent(faultfs.OS{}, dir)
	if err != nil || !ok {
		t.Fatalf("CURRENT unreadable: ok=%v err=%v", ok, err)
	}
	// Close checkpointed, so the live WAL must be empty.
	fi, err := os.Stat(filepath.Join(dir, walName(seq)))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("WAL size %d after Close, want 0", fi.Size())
	}
	reopened, err := Open(dir, Options{Shard: shard.Config{Shards: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Index().Query(obj.Box, nil); !sameIDs(sortedCopy(got), []int32{700_001}) {
		t.Fatalf("object lost across Close/reopen: %v", got)
	}
}

func TestBootstrapEmptyStore(t *testing.T) {
	store, err := Open(t.TempDir(), Options{Shard: shard.Config{Shards: 2}, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Index().Len() != 0 {
		t.Fatalf("empty bootstrap has %d objects", store.Index().Len())
	}
	if err := store.Insert(geom.Object{Box: geom.BoxAt(geom.Point{1, 1, 1}, 1), ID: 1}); err != nil {
		t.Fatal(err)
	}
	if got := store.Index().Query(geom.BoxAt(geom.Point{1, 1, 1}, 2), nil); len(got) != 1 {
		t.Fatalf("insert into empty store invisible: %v", got)
	}
}

// TestApplyIsTheLoggedUpdatePath: Apply takes a decoded record through the
// same log-then-apply body as Insert and Delete — the record is in the WAL
// (it survives a hard stop), owns a sequence number, and an opcode the
// format does not define is refused before anything is logged, without
// degrading the store.
func TestApplyIsTheLoggedUpdatePath(t *testing.T) {
	base := dataset.Uniform(200, 83)
	dir := t.TempDir()
	opts := Options{Shard: shard.Config{Shards: 2}, Bootstrap: func() []geom.Object { return base }}
	store, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	a := geom.Object{ID: 9_000_001, Box: base[0].Box}
	b := geom.Object{ID: 9_000_002, Box: base[1].Box}
	for _, rec := range []wal.Record{
		{Op: wal.OpInsert, Objects: []geom.Object{a, b}},
		{Op: wal.OpDelete, ID: a.ID, Hint: a.Box},
	} {
		if err := store.Apply(&rec); err != nil {
			t.Fatalf("Apply(op %d): %v", rec.Op, err)
		}
	}
	if err := store.Apply(&wal.Record{Op: 0x7f}); err == nil {
		t.Fatal("Apply accepted an undefined opcode")
	}
	if deg, reason := store.Degraded(); deg {
		t.Fatalf("undefined opcode degraded the store: %s", reason)
	}
	if got := store.NextSeq(); got != 3 {
		t.Fatalf("NextSeq = %d after two applied records, want 3", got)
	}

	// Hard stop (no Close), reopen: both records replay from the WAL.
	reopened, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	ids := sortedCopy(reopened.Index().Query(dataset.Universe(), nil))
	has := func(id int32) bool {
		i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
		return i < len(ids) && ids[i] == id
	}
	if has(a.ID) || !has(b.ID) || len(ids) != len(base)+1 {
		t.Fatalf("after replay: has(a)=%v has(b)=%v len=%d, want false true %d", has(a.ID), has(b.ID), len(ids), len(base)+1)
	}
}
