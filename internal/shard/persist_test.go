package shard

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faultfs"
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

// TestSnapshotRestoreOverflowShard restores the layout earlier versions
// wrote, which kept out-of-tile inserts in a separate "overflow" shard
// beside the tiles. The test forges it from a 3-shard snapshot by moving
// the last shard into the manifest's overflow entry; Restore must load it
// as one more ordinary shard, and the next snapshot must not carry it.
func TestSnapshotRestoreOverflowShard(t *testing.T) {
	data := dataset.Uniform(2000, 73)
	ix := New(data, Config{Shards: 3})
	dir := t.TempDir()
	if err := ix.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	last := m.Shards[len(m.Shards)-1]
	m.Shards = m.Shards[:len(m.Shards)-1]
	m.Overflow = &overflowEntry{File: "overflow.snap", Bounds: last.Bounds}
	// Earlier versions wrote the union of the tiles without the overflow
	// shard's box.
	union := geom.EmptyBox()
	for _, rec := range m.Shards {
		union = union.Extend(geom.Box(*rec.Tile))
	}
	m.TileMBB = manifestBox(union)
	if err := os.Rename(filepath.Join(dir, last.File), filepath.Join(dir, m.Overflow.File)); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(faultfs.OS{}, filepath.Join(dir, ManifestName), &m); err != nil {
		t.Fatal(err)
	}

	restored, err := Restore(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := restored.NumShards(); n != 3 {
		t.Fatalf("NumShards = %d after legacy restore, want 3", n)
	}
	for _, o := range data {
		if !idSet(restored.Query(o.Box, nil))[o.ID] {
			t.Fatalf("object %d lost across legacy restore", o.ID)
		}
	}
	far := geom.Object{Box: geom.BoxAt(geom.Point{-1e6, 0, 0}, 3), ID: 910002}
	if err := restored.Insert(far); err != nil {
		t.Fatal(err)
	}
	if got := restored.Query(far.Box, nil); !sameIDs(sortedCopy(got), []int32{910002}) {
		t.Fatalf("post-restore far insert lost: %v", got)
	}

	next := t.TempDir()
	if err := restored.Snapshot(next); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(filepath.Join(next, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"overflow"`)) {
		t.Fatalf("snapshot after legacy restore still writes an overflow entry:\n%s", raw)
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

// TestRestoreRejectsEscapingShardFile: a follower installs the manifest its
// leader sends, so a shard file named outside the snapshot directory must be
// refused even when the file it points at is a valid shard.
func TestRestoreRejectsEscapingShardFile(t *testing.T) {
	ix := New(dataset.Uniform(3000, 80), Config{Shards: 2})
	root := t.TempDir()
	dir := filepath.Join(root, "snap")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ix.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, ManifestName)
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, m.Shards[0].File), filepath.Join(root, "outside.snap")); err != nil {
		t.Fatal(err)
	}
	m.Shards[0].File = "../outside.snap"
	if raw, err = json.Marshal(&m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(dir, Config{}); err == nil {
		t.Fatal("restore loaded a shard file outside the snapshot directory")
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

// tamperSetup snapshots a 2-shard index of 5,000 uniform objects into dir
// and returns its manifest, 200 uniform queries at selectivity 1e-2, and
// the snapshotted index's sorted answer to each.
func tamperSetup(tb testing.TB, dir string) (manifest, []geom.Box, [][]int32) {
	tb.Helper()
	ix := New(dataset.Uniform(5000, 3), Config{Shards: 2})
	if err := ix.Snapshot(dir); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		tb.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		tb.Fatal(err)
	}
	queries := workload.Uniform(dataset.Universe(), 200, 1e-2, 4)
	want := make([][]int32, len(queries))
	for i, q := range queries {
		want[i] = sortedCopy(ix.Query(q, nil))
	}
	return m, queries, want
}

// tamperCase is a tampered manifest and whether Restore should accept it.
type tamperCase struct {
	m  manifest
	ok bool
}

// tamperedManifests are the manifests a restoring follower must not trust:
// shard 0's live bounds shrunk to [0,1]³ (accepted: the bounds are
// recomputed from the data), shard 0's bounds set to NaN (refused), shard 0's
// bounds or tile field absent (refused, not read as the zero box), shard 0
// listed twice (refused), and shard 1 dropped (refused: tile_mbb is no
// longer the union of the listed tiles).
func tamperedManifests(m manifest) map[string]tamperCase {
	tiny := &geom.StringBox{Max: geom.Point{1, 1, 1}}
	nan := &geom.StringBox{Min: geom.Point{math.NaN(), 0, 0}, Max: geom.Point{math.NaN(), 1, 1}}
	edit := func(ok bool, f func(*manifest)) tamperCase {
		c := m
		c.Shards = append([]shardRecord(nil), m.Shards...)
		f(&c)
		return tamperCase{c, ok}
	}
	return map[string]tamperCase{
		"tiny bounds":    edit(true, func(c *manifest) { c.Shards[0].Bounds = tiny }),
		"NaN bounds":     edit(false, func(c *manifest) { c.Shards[0].Bounds = nan }),
		"bounds missing": edit(false, func(c *manifest) { c.Shards[0].Bounds = nil }),
		"tile missing":   edit(false, func(c *manifest) { c.Shards[0].Tile = nil }),
		"shard twice":    edit(false, func(c *manifest) { c.Shards = append(c.Shards, c.Shards[0]) }),
		"shard dropped":  edit(false, func(c *manifest) { c.Shards = c.Shards[:1] }),
	}
}

// checkRestored restores dir and, when Restore succeeds, requires the
// invariants to hold and every query to return the snapshotted index's
// answer. It reports whether Restore succeeded.
func checkRestored(t *testing.T, dir string, queries []geom.Box, want [][]int32) bool {
	t.Helper()
	ix, err := Restore(dir, Config{})
	if err != nil {
		return false
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("restored, but invariants fail: %v", err)
	}
	for i, q := range queries {
		if got := sortedCopy(ix.Query(q, nil)); !sameIDs(got, want[i]) {
			t.Fatalf("query %d: restored index returns %d IDs, snapshot %d", i, len(got), len(want[i]))
		}
	}
	if got := ix.Len(); got != 5000 {
		t.Fatalf("restored Len %d, want 5000", got)
	}
	return true
}

// TestRestoreDistrustsManifest: a follower restores the manifest its leader
// ships, so a manifest whose bounds are too small or NaN, that names a shard
// file twice or drops one, must either be refused or restore an index that
// answers exactly like the snapshotted one.
func TestRestoreDistrustsManifest(t *testing.T) {
	dir := t.TempDir()
	m, queries, want := tamperSetup(t, dir)
	if !checkRestored(t, dir, queries, want) {
		t.Fatal("the untampered snapshot did not restore")
	}
	for name, tc := range tamperedManifests(m) {
		t.Run(name, func(t *testing.T) {
			if err := writeManifest(faultfs.OS{}, filepath.Join(dir, ManifestName), &tc.m); err != nil {
				t.Fatal(err)
			}
			if ok := checkRestored(t, dir, queries, want); ok != tc.ok {
				t.Fatalf("Restore accepted = %v, want %v", ok, tc.ok)
			}
		})
	}
}

// FuzzRestoreManifest mutates the manifest of a real 2-shard snapshot.
// Restore must never panic; whenever it succeeds, the invariants hold and a
// fixed query set returns the snapshotted index's answers.
func FuzzRestoreManifest(f *testing.F) {
	dir := f.TempDir()
	m, queries, want := tamperSetup(f, dir)
	queries, want = queries[:40], want[:40]
	f.Add(encodeManifest(f, m))
	for _, tc := range tamperedManifests(m) {
		f.Add(encodeManifest(f, tc.m))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(filepath.Join(dir, ManifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		checkRestored(t, dir, queries, want)
	})
}

func encodeManifest(tb testing.TB, m manifest) []byte {
	tb.Helper()
	raw, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestManifestGolden pins the MANIFEST bytes: an index built over no
// objects has one empty tile whose ±Inf bounds are spelled "+Inf" and
// "-Inf", and its manifest is byte for byte the one in testdata, written
// by an earlier version: data directories must read the same across
// versions.
func TestManifestGolden(t *testing.T) {
	dir := t.TempDir()
	if err := New(nil, Config{Shards: 1}).Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "empty-tile.MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("MANIFEST of an empty index:\n%s\nwant:\n%s", got, want)
	}
	ix, err := Restore(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := ix.Len(); n != 0 {
		t.Fatalf("restored empty index holds %d objects", n)
	}
}

// TestRestoreEarlierSnapshot restores testdata/snapshot-v1, a 2-shard
// snapshot of dataset.Uniform(300, 47) refined by 20 queries and written by
// an earlier version, checks it answers like a scan, and that snapshotting
// it again writes the same MANIFEST bytes.
func TestRestoreEarlierSnapshot(t *testing.T) {
	src := filepath.Join("testdata", "snapshot-v1")
	ix, err := Restore(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ix.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(src, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-snapshotted MANIFEST:\n%s\nwant:\n%s", got, want)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	data := dataset.Uniform(300, 47)
	if ix.Len() != len(data) || ix.NumShards() != 2 {
		t.Fatalf("restored %d objects in %d shards, want %d in 2", ix.Len(), ix.NumShards(), len(data))
	}
	for i, q := range workload.Uniform(dataset.Universe(), 50, 1e-2, 49) {
		var want []int32
		for _, o := range data {
			if o.Box.Intersects(q) {
				want = append(want, o.ID)
			}
		}
		if got := sortedCopy(ix.Query(q, nil)); !sameIDs(got, sortedCopy(want)) {
			t.Fatalf("query %d: restored index returns %d IDs, scan %d", i, len(got), len(want))
		}
	}
}
