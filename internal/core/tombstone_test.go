package core

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/workload"
)

// TestTombstonePinnedAcrossGrowth pins a version holding a few tombstones,
// then deletes enough objects — indexed and pending — to grow the
// generation's tombstone table several times (it starts at 8 entries and
// doubles), then flushes under the pin. The pinned view must answer and
// serialize exactly as it did when pinned: growth copies the table and
// leaves the pin's one frozen, and the flush supersedes the generation.
func TestTombstonePinnedAcrossGrowth(t *testing.T) {
	data := dataset.Uniform(4000, 31)
	ix := New(dataset.Clone(data), Config{})
	ix.Complete()
	boxes := workload.Uniform(dataset.Universe(), 48, 3e-3, 32)
	var pending []geom.Object
	for i, q := range boxes[:24] {
		o := geom.Object{Box: geom.BoxAt(q.Center(), 2), ID: int32(900_000 + i)}
		ix.Append(o)
		pending = append(pending, o)
	}
	del := func(o geom.Object) {
		t.Helper()
		if found, ok := ix.DeleteShared(o.ID, o.Box); !found || !ok {
			t.Fatalf("DeleteShared(%d) = %v, %v on a converged index", o.ID, found, ok)
		}
	}
	for _, o := range append(dataset.Clone(data[:4]), pending[0]) {
		del(o)
	}

	v := ix.PinVersion()
	defer v.Release()
	answers := make([][]int32, len(boxes))
	for i, q := range boxes {
		got, ok := ix.queryAtVersion(v, q, nil)
		if !ok {
			t.Fatalf("box %d: queryAtVersion bailed at the pin", i)
		}
		answers[i] = sortedIDs(got)
	}
	var atPin bytes.Buffer
	if err := ix.SaveVersion(&atPin, v); err != nil {
		t.Fatal(err)
	}

	for _, o := range append(dataset.Clone(data[4:304]), pending[1:]...) {
		del(o)
	}
	if got := ix.Deleted(); got != 5+300+len(pending)-1 {
		t.Fatalf("Deleted = %d before the flush", got)
	}
	ix.Flush()
	if ix.Deleted() != 0 || v.DeletedLen() != 5 {
		t.Fatalf("after Flush: live Deleted = %d, pinned DeletedLen = %d, want 0 and 5", ix.Deleted(), v.DeletedLen())
	}

	var after bytes.Buffer
	if err := ix.SaveVersion(&after, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(atPin.Bytes(), after.Bytes()) {
		t.Fatal("the pinned version's snapshot changed across tombstone growth and Flush")
	}
	for i, q := range boxes {
		got, ok := ix.queryAtVersion(v, q, nil)
		if !ok {
			t.Fatalf("box %d: queryAtVersion bailed on the superseded pin", i)
		}
		if !equalIDs(sortedIDs(got), answers[i]) {
			t.Fatalf("box %d: the pinned view answers %d IDs, %d at the pin", i, len(got), len(answers[i]))
		}
	}
}

// TestTombstoneDeleteCostFlat bounds what a delete allocates once many
// tombstones are live: adding one to the generation's shared table copies
// nothing, so 2,048 deletes on top of 1,024 live tombstones allocate at
// most 1 KiB each — the new version, the probe's position slice and the
// table's amortised growth.
func TestTombstoneDeleteCostFlat(t *testing.T) {
	const live, timed = 1024, 2048
	data := dataset.Uniform(live+timed+1000, 41)
	ix := New(dataset.Clone(data), Config{})
	ix.Complete()
	del := func(o geom.Object) {
		if found, ok := ix.DeleteShared(o.ID, o.Box); !found || !ok {
			t.Fatalf("DeleteShared(%d) = %v, %v on a converged index", o.ID, found, ok)
		}
	}
	for _, o := range data[:live] {
		del(o)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, o := range data[live : live+timed] {
		del(o)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / timed; per > 1024 {
		t.Fatalf("a delete with %d+ live tombstones allocates %d B, want <= 1024", live, per)
	}
	if got := ix.Deleted(); got != live+timed {
		t.Fatalf("Deleted = %d, want %d", got, live+timed)
	}
}
