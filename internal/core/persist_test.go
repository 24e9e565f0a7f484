package core

import (
	"bytes"
	"encoding/gob"
	"io"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/scan"
	"repro/internal/workload"
)

// saveV1 writes the legacy single-gob format — the fixture writer behind
// the v1 load and v1→v2 migration tests (only the v1 reader is product
// code), so they need no checked-in binary fixtures.
func (ix *Index) saveV1(w io.Writer) error {
	v := ix.live.Load()
	snap := snapshot{
		Version: snapshotVersion,
		Cfg:     ix.cfg,
		Data:    ix.data.Objects(make([]geom.Object, 0, ix.data.Len())),
		Pending: v.pending,
		Deleted: deletedIDs(v.deleted),
		MaxExt:  v.maxExt,
		DataMBB: v.dataMBB,
		Tau:     ix.tau,
		Root:    encodeList(ix.root),
		Stats:   ix.Stats(),
	}
	return gob.NewEncoder(w).Encode(&snap)
}

func TestPersistRoundTrip(t *testing.T) {
	data := dataset.Uniform(5000, 1001)
	oracle := scan.New(data)
	ix := New(dataset.Clone(data), Config{Tau: 32})
	warm := workload.Uniform(dataset.Universe(), 80, 1e-3, 1002)
	for _, q := range warm {
		ix.Query(q, nil)
	}
	statsBefore := ix.Stats()
	slicesBefore := ix.NumSlices()

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumSlices() != slicesBefore {
		t.Fatalf("slices = %d, want %d", loaded.NumSlices(), slicesBefore)
	}
	if loaded.Stats() != statsBefore {
		t.Fatalf("stats = %+v, want %+v", loaded.Stats(), statsBefore)
	}
	// The reloaded index answers correctly and keeps refining.
	for qi, q := range workload.Uniform(dataset.Universe(), 60, 1e-3, 1003) {
		got := sortedIDs(loaded.Query(q, nil))
		want := sortedIDs(oracle.Query(q, nil))
		if !equalIDs(got, want) {
			t.Fatalf("query %d after reload: got %d, want %d", qi, len(got), len(want))
		}
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPersistRefinementPreserved(t *testing.T) {
	// Queries on a reloaded, fully-converged index must crack nothing.
	data := dataset.Uniform(4000, 1004)
	ix := New(dataset.Clone(data), Config{Tau: 32})
	ix.Complete()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	before := loaded.Stats().Cracks
	for _, q := range workload.Uniform(dataset.Universe(), 30, 1e-3, 1005) {
		loaded.Query(q, nil)
	}
	if after := loaded.Stats().Cracks; after != before {
		t.Fatalf("reloaded converged index cracked: %d -> %d", before, after)
	}
}

func TestPersistWithPending(t *testing.T) {
	data := dataset.Uniform(1000, 1006)
	ix := New(dataset.Clone(data), Config{Tau: 32})
	ix.Append(geom.Object{Box: geom.BoxAt(geom.Point{1, 2, 3}, 1), ID: 424242})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", loaded.Pending())
	}
	res := loaded.Query(geom.BoxAt(geom.Point{1, 2, 3}, 2), nil)
	found := false
	for _, id := range res {
		if id == 424242 {
			found = true
		}
	}
	if !found {
		t.Fatal("pending object lost in round trip")
	}
}

func TestPersistEmptyIndex(t *testing.T) {
	ix := New(nil, Config{})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res := loaded.Query(geom.BoxAt(geom.Point{0, 0, 0}, 10), nil); len(res) != 0 {
		t.Fatalf("empty reload returned %d results", len(res))
	}
}

func TestSaveWritesV2Magic(t *testing.T) {
	ix := New(dataset.Uniform(100, 1010), Config{})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(magicV2)) {
		t.Fatalf("Save did not write the v2 magic, got prefix %q", buf.Bytes()[:8])
	}
}

func TestLoadV1Snapshot(t *testing.T) {
	// A legacy (gob-only) snapshot must keep loading through the same Load.
	data := dataset.Uniform(3000, 1011)
	oracle := scan.New(data)
	ix := New(dataset.Clone(data), Config{Tau: 32})
	for _, q := range workload.Uniform(dataset.Universe(), 50, 1e-3, 1012) {
		ix.Query(q, nil)
	}
	var buf bytes.Buffer
	if err := ix.saveV1(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("loading v1 snapshot: %v", err)
	}
	if loaded.NumSlices() != ix.NumSlices() {
		t.Fatalf("slices = %d, want %d", loaded.NumSlices(), ix.NumSlices())
	}
	for qi, q := range workload.Uniform(dataset.Universe(), 40, 1e-3, 1013) {
		got := sortedIDs(loaded.Query(q, nil))
		want := sortedIDs(oracle.Query(q, nil))
		if !equalIDs(got, want) {
			t.Fatalf("query %d after v1 load: got %d, want %d", qi, len(got), len(want))
		}
	}
}

func TestMigrateV1ToV2(t *testing.T) {
	// v1 → load → save (v2) → load must preserve structure, buffers and
	// query answers: the upgrade path for pre-columnar snapshots.
	data := dataset.Uniform(2000, 1014)
	oracle := scan.New(data)
	ix := New(dataset.Clone(data), Config{Tau: 32})
	for _, q := range workload.Uniform(dataset.Universe(), 40, 1e-3, 1015) {
		ix.Query(q, nil)
	}
	ix.Append(geom.Object{Box: geom.BoxAt(geom.Point{5, 5, 5}, 1), ID: 555555})
	ix.Delete(data[7].ID, data[7].Box)

	var v1 bytes.Buffer
	if err := ix.saveV1(&v1); err != nil {
		t.Fatal(err)
	}
	mid, err := Load(&v1)
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := mid.Save(&v2); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v2.Bytes(), []byte(magicV2)) {
		t.Fatal("migrated snapshot is not v2")
	}
	final, err := Load(&v2)
	if err != nil {
		t.Fatal(err)
	}
	if final.NumSlices() != ix.NumSlices() {
		t.Fatalf("slices = %d, want %d", final.NumSlices(), ix.NumSlices())
	}
	if final.Pending() != 1 || final.Deleted() != 1 {
		t.Fatalf("pending/deleted = %d/%d, want 1/1", final.Pending(), final.Deleted())
	}
	deletedID := data[7].ID
	for qi, q := range workload.Uniform(dataset.Universe(), 40, 1e-3, 1016) {
		want := sortedIDs(oracle.Query(q, nil))
		// Apply the update stream to the oracle answer.
		w := want[:0]
		for _, id := range want {
			if id != deletedID {
				w = append(w, id)
			}
		}
		want = w
		if q.Intersects(geom.BoxAt(geom.Point{5, 5, 5}, 1)) {
			want = sortedIDs(append(want, 555555))
		}
		got := sortedIDs(final.Query(q, nil))
		if !equalIDs(got, want) {
			t.Fatalf("query %d after migration: got %d, want %d", qi, len(got), len(want))
		}
	}
}

func TestLoadRejectsTamperedV2Header(t *testing.T) {
	ix := New(dataset.Uniform(500, 1017), Config{Tau: 16})
	for _, q := range workload.Uniform(dataset.Universe(), 10, 1e-2, 1018) {
		ix.Query(q, nil)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Blow up the header length prefix (bytes 8..16).
	for i := 8; i < 16; i++ {
		raw[i] = 0xff
	}
	if _, err := Load(bytes.NewReader(raw)); err == nil {
		t.Fatal("tampered header length accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("this is not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadRejectsCorruptStructure(t *testing.T) {
	// Encode a snapshot whose slice ranges are inconsistent; Load must
	// reject it via CheckInvariants.
	data := dataset.Uniform(100, 1007)
	ix := New(dataset.Clone(data), Config{Tau: 8})
	ix.Query(workload.Uniform(dataset.Universe(), 1, 1e-2, 1008)[0], nil)
	// Corrupt: shrink the data lanes so slice ranges dangle.
	ix.data.Truncate(50)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}
