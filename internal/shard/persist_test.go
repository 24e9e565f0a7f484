package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
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

func TestSnapshotRestoreEquivalence(t *testing.T) {
	data := dataset.Uniform(12000, 71)
	ix := New(data, Config{Shards: 4})
	queries := workload.Uniform(dataset.Universe(), 120, 1e-3, 72)
	for _, q := range queries[:60] {
		ix.Query(q, nil)
	}
	// Live updates so pending buffers and tombstones cross the snapshot.
	inserted := geom.Object{Box: geom.BoxAt(geom.Point{123, 456, 789}, 2), ID: 900001}
	if err := ix.Insert(inserted); err != nil {
		t.Fatal(err)
	}
	if ok, err := ix.Delete(data[5].ID, data[5].Box); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}

	dir := t.TempDir()
	if err := ix.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumShards() != ix.NumShards() {
		t.Fatalf("restored %d shards, want %d", restored.NumShards(), ix.NumShards())
	}
	if restored.Len() != ix.Len() {
		t.Fatalf("restored Len %d, want %d", restored.Len(), ix.Len())
	}
	if restored.ApproxLen() != ix.Len() {
		t.Fatalf("restored ApproxLen %d, want %d", restored.ApproxLen(), ix.Len())
	}
	for qi, q := range queries {
		got := sortedCopy(restored.Query(q, nil))
		want := sortedCopy(ix.Query(q, nil))
		if !sameIDs(got, want) {
			t.Fatalf("query %d: restored %d IDs, original %d", qi, len(got), len(want))
		}
	}
	if got := restored.Query(inserted.Box, nil); !sameIDs(sortedCopy(got), []int32{900001}) {
		t.Fatalf("pending insert lost across snapshot: %v", got)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The restored engine keeps accepting updates and refining.
	if err := restored.Insert(geom.Object{Box: geom.BoxAt(geom.Point{50, 50, 50}, 1), ID: 900002}); err != nil {
		t.Fatal(err)
	}
	if err := restored.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries[60:] {
		restored.Query(q, nil)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRestoreOverflowShard(t *testing.T) {
	data := dataset.Uniform(2000, 73)
	ix := New(data, Config{Shards: 2})
	// An insert far outside the tile union lands in the overflow shard.
	far := geom.Object{Box: geom.BoxAt(geom.Point{1e6, 1e6, 1e6}, 3), ID: 910001}
	if err := ix.Insert(far); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ix.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := restored.Query(far.Box, nil)
	if !sameIDs(sortedCopy(got), []int32{910001}) {
		t.Fatalf("overflow object lost across snapshot: %v", got)
	}
	// Routing still works: another far insert reuses the restored overflow.
	far2 := geom.Object{Box: geom.BoxAt(geom.Point{-1e6, 0, 0}, 3), ID: 910002}
	if err := restored.Insert(far2); err != nil {
		t.Fatal(err)
	}
	if got := restored.Query(far2.Box, nil); !sameIDs(sortedCopy(got), []int32{910002}) {
		t.Fatalf("post-restore overflow insert lost: %v", got)
	}
}

func TestSnapshotConcurrentWithQueries(t *testing.T) {
	data := dataset.Uniform(8000, 74)
	ix := New(data, Config{Shards: 4})
	queries := workload.Uniform(dataset.Universe(), 200, 1e-3, 75)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ix.Query(queries[(i*4+g)%len(queries)], nil)
			}
		}(g)
	}
	dir := t.TempDir()
	err := ix.Snapshot(dir)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	restored, rerr := Restore(dir, Config{})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != ix.Len() {
		t.Fatalf("restored Len %d, want %d", restored.Len(), ix.Len())
	}
}

func TestRestoreRejectsMissingManifest(t *testing.T) {
	if _, err := Restore(t.TempDir(), Config{}); err == nil {
		t.Fatal("restore from empty dir succeeded")
	}
}

func TestRestoreRejectsTruncatedShardFile(t *testing.T) {
	data := dataset.Uniform(3000, 77)
	ix := New(data, Config{Shards: 2})
	dir := t.TempDir()
	if err := ix.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, shardFileName(0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(dir, Config{}); err == nil {
		t.Fatal("restore with truncated shard file succeeded")
	}
}

// TestSnapshotDeterministicWithTombstones: one engine state snapshots to
// byte-identical files every time, shard files holding tombstones included.
func TestSnapshotDeterministicWithTombstones(t *testing.T) {
	data := dataset.Uniform(6000, 78)
	ix := New(data, Config{Shards: 2})
	for _, q := range workload.Uniform(dataset.Universe(), 30, 1e-3, 79) {
		ix.Query(q, nil)
	}
	for i := 0; i < 200; i++ {
		if ok, err := ix.Delete(data[i*29].ID, data[i*29].Box); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", data[i*29].ID, ok, err)
		}
	}
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		if err := ix.Snapshot(dir); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, e := range entries {
		a, errA := os.ReadFile(filepath.Join(dirs[0], e.Name()))
		b, errB := os.ReadFile(filepath.Join(dirs[1], e.Name()))
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v / %v", e.Name(), errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between two snapshots of one state", e.Name())
		}
		if filepath.Ext(e.Name()) == ".snap" {
			snaps++
		}
	}
	if snaps != ix.NumShards() {
		t.Fatalf("compared %d shard files, want %d", snaps, ix.NumShards())
	}
}
