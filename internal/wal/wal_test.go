package wal

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/geom"
)

func obj(id int32, x float64) geom.Object {
	return geom.Object{Box: geom.BoxAt(geom.Point{x, x, x}, 2), ID: id}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := CreateFS(faultfs.OS{}, path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendInsert([]geom.Object{obj(1, 10), obj(2, 20)}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendDelete(1, geom.BoxAt(geom.Point{10, 10, 10}, 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendInsert([]geom.Object{obj(3, 30)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	n, err := Replay(path, func(r *Record) error {
		c := *r
		c.Objects = append([]geom.Object(nil), r.Objects...)
		got = append(got, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", n)
	}
	if got[0].Op != OpInsert || len(got[0].Objects) != 2 || got[0].Objects[1] != obj(2, 20) {
		t.Fatalf("record 0 = %+v", got[0])
	}
	if got[1].Op != OpDelete || got[1].ID != 1 || got[1].Hint != geom.BoxAt(geom.Point{10, 10, 10}, 2) {
		t.Fatalf("record 1 = %+v", got[1])
	}
	if got[2].Op != OpInsert || got[2].Objects[0].ID != 3 {
		t.Fatalf("record 2 = %+v", got[2])
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	n, err := Replay(filepath.Join(t.TempDir(), "absent.log"), func(*Record) error {
		t.Fatal("apply called on missing log")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v, want 0, nil", n, err)
	}
}

// TestOpenErrors: a path that is not a readable log file is an error for
// Replay and OpenReader alike — only a missing log reads as empty.
func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Replay(dir, func(*Record) error { return nil }); err == nil {
		t.Error("Replay of a directory succeeded")
	}
	if _, err := OpenReader(filepath.Join(dir, "absent.log")); err == nil {
		t.Error("OpenReader of a missing file succeeded")
	}
}

func TestTornTailTruncatedOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := CreateFS(faultfs.OS{}, path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 5; i++ {
		if err := l.AppendInsert([]geom.Object{obj(i, float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: chop bytes off the last record.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	// Replay survives the torn tail...
	n, err := Replay(path, func(*Record) error { return nil })
	if err != nil || n != 4 {
		t.Fatalf("replayed %d records (err=%v), want 4", n, err)
	}
	// ...and reopening truncates it so new appends follow intact records.
	l2, err := CreateFS(faultfs.OS{}, path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.AppendDelete(99, geom.BoxAt(geom.Point{1, 1, 1}, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	var last *Record
	n, err = Replay(path, func(r *Record) error { c := *r; last = &c; return nil })
	if err != nil || n != 5 {
		t.Fatalf("replayed %d records (err=%v), want 5", n, err)
	}
	if last.Op != OpDelete || last.ID != 99 {
		t.Fatalf("last record = %+v, want the post-reopen delete", last)
	}
}

func TestOpenReplaySinglePassRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := CreateFS(faultfs.OS{}, path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 4; i++ {
		if err := l.AppendInsert([]geom.Object{obj(i, float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail, then recover + reopen in one call.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var ids []int32
	l2, n, err := OpenReplayFS(faultfs.OS{}, path, SyncNever, func(r *Record) error {
		ids = append(ids, r.Objects[0].ID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(ids) != 3 || ids[2] != 2 {
		t.Fatalf("replayed %d records (%v), want the 3 intact ones", n, ids)
	}
	// The handle appends after the truncated tail.
	if err := l2.AppendDelete(7, geom.BoxAt(geom.Point{1, 1, 1}, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	total, err := Replay(path, func(*Record) error { return nil })
	if err != nil || total != 4 {
		t.Fatalf("replayed %d records (err=%v), want 4", total, err)
	}
	// A missing file is created empty, apply never runs.
	l3, n, err := OpenReplayFS(faultfs.OS{}, filepath.Join(t.TempDir(), "fresh.log"), SyncNever, func(*Record) error {
		t.Fatal("apply called on fresh log")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("fresh OpenReplay: n=%d err=%v", n, err)
	}
	l3.Close()
}

func TestCorruptPayloadStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := CreateFS(faultfs.OS{}, path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 3; i++ {
		if err := l.AppendInsert([]geom.Object{obj(i, float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	recLen := int(l.Size()) / 3
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[2*recLen+12] ^= 0xff // flip a byte inside the third record's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := Replay(path, func(*Record) error { return nil })
	if err != nil || n != 2 {
		t.Fatalf("replayed %d records (err=%v), want 2 (corrupt third dropped)", n, err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := CreateFS(faultfs.OS{}, path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const perG, goroutines = 50, 8
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := int32(g*perG + i)
				if err := l.AppendInsert([]geom.Object{obj(id, float64(id))}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]bool)
	n, err := Replay(path, func(r *Record) error {
		seen[r.Objects[0].ID] = true
		return nil
	})
	if err != nil || n != perG*goroutines {
		t.Fatalf("replayed %d records (err=%v), want %d", n, err, perG*goroutines)
	}
	if len(seen) != perG*goroutines {
		t.Fatalf("saw %d distinct IDs, want %d", len(seen), perG*goroutines)
	}
}
