package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"io"
	"math"
	"math/rand"
	"runtime"
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
		Cfg:     persistConfig(ix.cfg),
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
	ix.data.Reload(ix.data.Objects(nil)[:50])
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func saveBytes(tb testing.TB, ix *Index) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// rewriteHeader decodes the gob header of the v2 snapshot raw as an H,
// applies edit and re-encodes it in front of the untouched lane block.
func rewriteHeader[H any](tb testing.TB, raw []byte, edit func(*H)) []byte {
	tb.Helper()
	start := len(magicV2) + 8
	end := start + int(binary.LittleEndian.Uint64(raw[len(magicV2):]))
	var head H
	if err := gob.NewDecoder(bytes.NewReader(raw[start:end])).Decode(&head); err != nil {
		tb.Fatal(err)
	}
	edit(&head)
	var hb bytes.Buffer
	if err := gob.NewEncoder(&hb).Encode(&head); err != nil {
		tb.Fatal(err)
	}
	out := binary.LittleEndian.AppendUint64([]byte(magicV2), uint64(hb.Len()))
	out = append(out, hb.Bytes()...)
	return append(out, raw[end:]...)
}

// deepSnapshot is a completed index's snapshot with one more level hung
// under its first z slice: a hierarchy nested deeper than geom.Dims.
func deepSnapshot(tb testing.TB) []byte {
	tb.Helper()
	ix := New(genVisObjects(rand.New(rand.NewSource(1021)), 200, 0), Config{Tau: 8})
	ix.Complete()
	return rewriteHeader(tb, saveBytes(tb, ix), func(h *snapshotV2) {
		z := &h.Root.Slices[0].Children.Slices[0].Children.Slices[0]
		z.Children = &snapList{MaxExt: z.Box.Max[0] - z.Box.Min[0],
			Slices: []snapSlice{{Lo: z.Lo, Hi: z.Hi, Box: z.Box, Refined: true}}}
	})
}

// TestLoadRejectsNestingDeeperThanDims: a level below z has no dimension to
// slice. Load must return an error rather than panic — shard restore calls
// it from bare goroutines, where a panic kills the process.
func TestLoadRejectsNestingDeeperThanDims(t *testing.T) {
	_, err := Load(bytes.NewReader(deepSnapshot(t)))
	if err == nil || !strings.Contains(err.Error(), "nested deeper") {
		t.Fatalf("Load of a four-level hierarchy = %v, want a nesting error", err)
	}
}

// legacyConfig and legacyHeaderV2 are the v2 header as it was written while
// Config still carried the assignment mode, the artificial-refinement
// switch and the switch that turned the work counters off.
type legacyConfig struct {
	Tau               int
	Assign            int
	DisableArtificial bool
	Stochastic        bool
	Seed              int64
	DisableStats      bool
	HeatSampleEvery   int
}

type legacyHeaderV2 struct {
	Cfg     legacyConfig
	DataLen int
	Pending []geom.Object
	Deleted []int32
	MaxExt  geom.Point
	DataMBB geom.Box
	Tau     [geom.Dims]int
	Root    *snapList
	Stats   Stats
}

// TestLoadRefusesNonLowerAssignment: a snapshot whose slices partition some
// other representative coordinate than the lower corner is refused with an
// error naming the mode, while one written with artificial refinement off,
// or with the work counters off, is a valid hierarchy and loads — the
// latter counting its work from the next query on.
func TestLoadRefusesNonLowerAssignment(t *testing.T) {
	data := dataset.Uniform(500, 1022)
	ix := New(dataset.Clone(data), Config{Tau: 16})
	for _, q := range workload.Uniform(dataset.Universe(), 10, 1e-2, 1023) {
		ix.Query(q, nil)
	}
	raw := saveBytes(t, ix)
	legacy := func(edit func(*legacyConfig)) []byte {
		return rewriteHeader(t, raw, func(h *legacyHeaderV2) { edit(&h.Cfg) })
	}
	for mode, name := range map[int]string{1: "center", 2: "upper corner", 9: "unknown"} {
		_, err := Load(bytes.NewReader(legacy(func(c *legacyConfig) { c.Assign = mode })))
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("Load with Assign %d = %v, want an error naming %q", mode, err, name)
		}
	}
	oracle := scan.New(data)
	for name, edit := range map[string]func(*legacyConfig){
		"artificial refinement off": func(c *legacyConfig) { c.DisableArtificial = true },
		"work counters off":         func(c *legacyConfig) { c.DisableStats = true },
	} {
		loaded, err := Load(bytes.NewReader(legacy(edit)))
		if err != nil {
			t.Fatalf("Load with %s: %v", name, err)
		}
		for qi, q := range workload.Uniform(dataset.Universe(), 20, 1e-2, 1024) {
			before := loaded.Stats()
			if got, want := sortedIDs(loaded.Query(q, nil)), sortedIDs(oracle.Query(q, nil)); !equalIDs(got, want) {
				t.Fatalf("%s: query %d: got %d, want %d", name, qi, len(got), len(want))
			}
			if after := loaded.Stats(); after.Queries != before.Queries+1 || after.ObjectsTested <= before.ObjectsTested {
				t.Fatalf("%s: query %d: counters did not move: %+v -> %+v", name, qi, before, after)
			}
		}
		if err := loaded.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestLoadIgnoresStochasticSwitch: a snapshot written with the retired
// random pre-cut switched on, under a seed, loads. The switch chose cuts,
// not answers, so it is ignored: the index answers like a scan and does
// exactly the work of the same snapshot without it.
func TestLoadIgnoresStochasticSwitch(t *testing.T) {
	data := dataset.Uniform(3000, 1040)
	ix := New(dataset.Clone(data), Config{Tau: 16})
	for _, q := range workload.Sequential(dataset.Universe(), 20, 1e-3, 0) {
		ix.Query(q, nil)
	}
	raw := saveBytes(t, ix)
	stoch := rewriteHeader(t, raw, func(h *legacyHeaderV2) { h.Cfg.Stochastic, h.Cfg.Seed = true, 7 })
	if bytes.Equal(stoch, raw) {
		t.Fatal("the rewritten header carries no switch")
	}
	plain, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(stoch))
	if err != nil {
		t.Fatalf("Load with the stochastic switch on: %v", err)
	}
	oracle := scan.New(data)
	for qi, q := range workload.Uniform(dataset.Universe(), 40, 1e-3, 1041) {
		if got, want := sortedIDs(loaded.Query(q, nil)), sortedIDs(oracle.Query(q, nil)); !equalIDs(got, want) {
			t.Fatalf("query %d: got %d, want %d", qi, len(got), len(want))
		}
		plain.Query(q, nil)
	}
	if got, want := loaded.Stats(), plain.Stats(); got != want {
		t.Fatalf("the switch changed the work: %+v, without it %+v", got, want)
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRejectsUnsoundBoxes: a query skips a slice on its box alone and
// binary-searches siblings by Min, so Load must refuse a hierarchy whose
// boxes do not hold their objects (a NaN bound included) or whose sibling
// list breaks the search's preconditions: either would make queries miss
// objects.
func TestLoadRejectsUnsoundBoxes(t *testing.T) {
	ix := New(genVisObjects(rand.New(rand.NewSource(1028)), 300, 0), Config{Tau: 8})
	ix.Complete()
	raw := saveBytes(t, ix)
	for name, edit := range map[string]func(l *snapList){
		"box misses its objects": func(l *snapList) { l.Slices[1].Box.Max[1] = l.Slices[1].Box.Min[1] },
		"NaN bound":              func(l *snapList) { l.Slices[1].Box.Min[2] = math.NaN() },
		"extent above maxExt":    func(l *snapList) { l.MaxExt /= 2 },
		"sibling Min decreases": func(l *snapList) {
			l.MaxExt = math.MaxFloat64
			l.Slices[1].Box.Min[0] = l.Slices[0].Box.Min[0] - 1
		},
	} {
		bad := rewriteHeader(t, raw, func(h *snapshotV2) {
			if len(h.Root.Slices) < 2 || math.IsInf(h.Root.MaxExt, 1) {
				t.Fatalf("completed index has %d root slices, maxExt %g", len(h.Root.Slices), h.Root.MaxExt)
			}
			edit(h.Root)
		})
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: Load accepted the snapshot", name)
		}
	}
}

// TestSaveDeterministic: one state saves to the same bytes every time, and
// again after a Load round trip — tombstones live in a map, so their IDs
// are sorted before encoding.
func TestSaveDeterministic(t *testing.T) {
	data := dataset.Uniform(3000, 1025)
	ix := New(dataset.Clone(data), Config{Tau: 16})
	for _, q := range workload.Uniform(dataset.Universe(), 20, 1e-3, 1026) {
		ix.Query(q, nil)
	}
	for i := 0; i < 200; i++ {
		if !ix.Delete(data[i*13].ID, data[i*13].Box) {
			t.Fatalf("object %d not found", data[i*13].ID)
		}
	}
	ix.Append(geom.Object{Box: geom.BoxAt(geom.Point{7, 7, 7}, 1), ID: 777777})
	first := saveBytes(t, ix)
	if !bytes.Equal(saveBytes(t, ix), first) {
		t.Fatal("saving one state twice wrote different bytes")
	}
	loaded, err := Load(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, loaded), first) {
		t.Fatal("saving a loaded snapshot wrote different bytes than the original")
	}
}

// FuzzSnapshotLoad feeds Load arbitrary bytes seeded from real snapshots of
// both formats and their corruptions. Load must never panic, must allocate
// in proportion to its input rather than to the counts the input claims,
// and every index it accepts must hold its invariants and answer like a
// scan over its own visible objects. Run `go test -fuzz=FuzzSnapshotLoad
// ./internal/core` to explore beyond the seeds.
func FuzzSnapshotLoad(f *testing.F) {
	rng := rand.New(rand.NewSource(1027))
	data := genVisObjects(rng, 300, 0)
	fresh := saveBytes(f, New(dataset.Clone(data), Config{Tau: 8}))
	ix := New(dataset.Clone(data), Config{Tau: 8})
	for i := 0; i < 12; i++ {
		ix.Query(randVisBox(rng), nil)
	}
	refined := saveBytes(f, ix)
	pending := genVisObjects(rng, 5, 1000)
	ix.Append(pending...)
	ix.Delete(pending[0].ID, pending[0].Box)
	for _, o := range data[:20] {
		ix.Delete(o.ID, o.Box)
	}
	deltas := saveBytes(f, ix)
	var v1 bytes.Buffer
	if err := ix.saveV1(&v1); err != nil {
		f.Fatal(err)
	}
	// Length prefixes claiming far more than the input carries: a 1 GiB
	// header, and a lane block of 8,000,000 rows.
	headerClaim := bytes.Clone(fresh)
	binary.LittleEndian.PutUint64(headerClaim[len(magicV2):], maxHeaderBytes)
	laneClaim := rewriteHeader(f, fresh, func(h *snapshotV2) { h.DataLen = 8_000_000 })
	at := len(magicV2) + 8 + int(binary.LittleEndian.Uint64(laneClaim[len(magicV2):]))
	binary.LittleEndian.PutUint64(laneClaim[at:], 8_000_000)
	for _, seed := range [][]byte{fresh, refined, deltas, v1.Bytes(), deepSnapshot(f), headerClaim, laneClaim,
		rewriteHeader(f, refined, func(h *snapshotV2) { h.Cfg.Assign = 1 })} {
		f.Add(seed)
	}
	// One flipped byte in each region of a v2 snapshot — magic, header
	// length, gob header, lane row count, lane words, checksum — and
	// truncations at the region boundaries and inside them.
	lanes := len(magicV2) + 8 + int(binary.LittleEndian.Uint64(refined[len(magicV2):]))
	for _, off := range []int{0, 9, (16 + lanes) / 2, lanes, lanes + 8 + 100, len(refined) - 1} {
		c := bytes.Clone(refined)
		c[off] ^= 0x5a
		f.Add(c)
	}
	for _, n := range []int{0, 5, 12, 16, (16 + lanes) / 2, lanes + 4, (lanes + len(refined)) / 2, len(refined) - 1} {
		f.Add(refined[:n])
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := Load(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		// An accepted snapshot legitimately costs a few hundred bytes of
		// memory per input byte (a zero-valued gob slice node is one byte);
		// the bound is on claims, which must not be trusted before the
		// bytes backing them arrive.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<20+256*len(raw)); got > limit {
			t.Fatalf("Load allocated %d bytes for a %d-byte input, want < %d", got, len(raw), limit)
		}
		if err != nil {
			return
		}
		// Flush merges the pending objects into the loaded hierarchy (or
		// boxes a new root with the snapshot's DataMBB when it is empty):
		// the queries after it must still see every object.
		oracle := scan.New(visibleObjects(ix.live.Load()))
		rng := rand.New(rand.NewSource(int64(len(raw))))
		for _, stage := range []string{"a loaded snapshot", "a flushed loaded snapshot"} {
			for qi := 0; qi < 4; qi++ {
				q := randVisBox(rng)
				if got, want := sortedIDs(ix.Query(q, nil)), sortedIDs(oracle.Query(q, nil)); !equalIDs(got, want) {
					t.Fatalf("query %d %v on %s: got %d ids, scan says %d", qi, q, stage, len(got), len(want))
				}
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("invariants after querying %s: %v", stage, err)
			}
			ix.Flush()
		}
	})
}

// TestLoadRejectsDataMBBMissingObjects: Flush boxes the root of an empty
// hierarchy with the snapshot's DataMBB, so Load must refuse one that
// misses a row or a pending object — a query after the Flush would skip
// them.
func TestLoadRejectsDataMBBMissingObjects(t *testing.T) {
	data := genVisObjects(rand.New(rand.NewSource(1029)), 300, 0)
	ix := New(dataset.Clone(data), Config{Tau: 8})
	rowsOnly := saveBytes(t, ix)
	far := geom.Object{Box: geom.BoxAt(geom.Point{5000, 5000, 5000}, 1), ID: 9999}
	ix.Append(far)
	withPending := saveBytes(t, ix)
	for name, bad := range map[string][]byte{
		"a row outside": rewriteHeader(t, rowsOnly, func(h *snapshotV2) { h.DataMBB.Max[1] -= 10 }),
		"NaN bound":     rewriteHeader(t, rowsOnly, func(h *snapshotV2) { h.DataMBB.Min[0] = math.NaN() }),
		"pending outside": rewriteHeader(t, withPending, func(h *snapshotV2) {
			h.DataMBB.Max = geom.Point{1100, 1100, 1100}
		}),
	} {
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: Load accepted the snapshot", name)
		}
	}
	for name, good := range map[string][]byte{"rows": rowsOnly, "pending": withPending} {
		if _, err := Load(bytes.NewReader(good)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestUniverseBoxRootLoads: snapshots written before the root carried the
// data MBB have a universe-box root. Such an index must still load, refine
// (sweeping the key lane for the root's range) and answer like a scan, and
// its hierarchy — cracked or still the universe-box root — must survive a
// Flush merging a far insert into it.
func TestUniverseBoxRootLoads(t *testing.T) {
	data := dataset.Uniform(3000, 1030)
	raw := rewriteHeader(t, saveBytes(t, New(dataset.Clone(data), Config{Tau: 16})), func(h *snapshotV2) {
		h.Root.MaxExt = math.Inf(1)
		h.Root.Slices[0].Box = geom.UniverseBox()
	})
	ix, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if ix.root.slices[0].box != geom.UniverseBox() {
		t.Fatalf("loaded root box %v, want the universe box", ix.root.slices[0].box)
	}
	oracle := scan.New(data)
	queries := workload.Uniform(dataset.Universe(), 30, 1e-3, 1031)
	for qi, q := range queries {
		if got, want := sortedIDs(ix.Query(q, nil)), sortedIDs(oracle.Query(q, nil)); !equalIDs(got, want) {
			t.Fatalf("query %d: got %d, want %d", qi, len(got), len(want))
		}
	}
	if st := ix.Stats(); st.ScannedRows < int64(len(data)) {
		t.Fatalf("ScannedRows = %d: the universe-box root's range was not swept", st.ScannedRows)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	far := geom.Object{Box: geom.BoxAt(geom.Point{20000, 5, 5}, 2), ID: 77777}
	fresh, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]*Index{"cracked": ix, "universe-box root": fresh} {
		ix.Append(far)
		ix.Flush()
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("%s: invariants after Flush: %v", name, err)
		}
		if got := ix.Query(far.Box, nil); !containsID32(got, far.ID) {
			t.Fatalf("%s: the far insert is missing after Flush: %v", name, got)
		}
		for qi, q := range queries {
			if got, want := len(ix.Query(q, nil)), len(oracle.Query(q, nil)); got != want {
				t.Fatalf("%s: query %d after Flush: got %d, want %d", name, qi, got, want)
			}
		}
	}
}
