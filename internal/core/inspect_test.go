package core

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/workload"
)

// collectReports flattens a report tree depth-first.
func collectReports(list []SliceReport) []*SliceReport {
	var out []*SliceReport
	var walk func([]SliceReport)
	walk = func(l []SliceReport) {
		for i := range l {
			out = append(out, &l[i])
			walk(l[i].Children)
		}
	}
	walk(list)
	return out
}

// TestInspectStructure pins the snapshot invariants on a converged index:
// the census matches NumSlices, sibling ranges partition their parent,
// every node is refined/converged, and maxDepth truncates Children without
// perturbing the aggregates.
func TestInspectStructure(t *testing.T) {
	data := dataset.Uniform(6000, 11)
	ix := New(dataset.Clone(data), Config{})
	for _, q := range workload.Uniform(dataset.Universe(), 32, 1e-3, 12) {
		ix.Query(q, nil)
	}
	ix.Complete()

	full := ix.Inspect(0)
	if full.Slices != ix.NumSlices() {
		t.Fatalf("census says %d slices, NumSlices says %d", full.Slices, ix.NumSlices())
	}
	if !full.Converged || full.SlicesRefined != full.Slices {
		t.Fatalf("completed index not fully converged in report: %+v", full)
	}
	if full.Epoch != ix.Epoch() {
		t.Fatalf("report epoch %d != index epoch %d", full.Epoch, ix.Epoch())
	}
	if full.Objects != 6000 {
		t.Fatalf("report objects = %d, want 6000", full.Objects)
	}
	var checkTree func(list []SliceReport, lo, hi, level int)
	checkTree = func(list []SliceReport, lo, hi, level int) {
		pos := lo
		for i := range list {
			s := &list[i]
			if s.Level != level {
				t.Fatalf("slice at level %d, want %d", s.Level, level)
			}
			if s.Lo != pos {
				t.Fatalf("level %d: slice starts at %d, want %d", level, s.Lo, pos)
			}
			if s.Count != s.Hi-s.Lo {
				t.Fatalf("count %d != hi-lo %d", s.Count, s.Hi-s.Lo)
			}
			pos = s.Hi
			if len(s.Children) > 0 {
				if s.ChildSlices != len(s.Children) {
					t.Fatalf("child_slices %d != len(children) %d", s.ChildSlices, len(s.Children))
				}
				checkTree(s.Children, s.Lo, s.Hi, level+1)
			}
		}
		if pos != hi {
			t.Fatalf("level %d: siblings end at %d, want %d", level, pos, hi)
		}
	}
	checkTree(full.Root, 0, full.Objects, 0)

	// Truncation: depth 1 keeps no children but the same top-level census
	// and the same subtree aggregates on the level-0 nodes.
	top := ix.Inspect(1)
	if top.Slices != full.Slices || top.SlicesRefined != full.SlicesRefined {
		t.Fatalf("truncated census (%d/%d) differs from full (%d/%d)",
			top.Slices, top.SlicesRefined, full.Slices, full.SlicesRefined)
	}
	if len(top.Root) != len(full.Root) {
		t.Fatalf("truncated root has %d slices, full has %d", len(top.Root), len(full.Root))
	}
	for i := range top.Root {
		if len(top.Root[i].Children) != 0 {
			t.Fatalf("maxDepth=1 report still carries children")
		}
		if top.Root[i].ChildSlices != full.Root[i].ChildSlices {
			t.Fatalf("truncation changed child_slices: %d != %d",
				top.Root[i].ChildSlices, full.Root[i].ChildSlices)
		}
		if top.Root[i].SubtreeHeat != full.Root[i].SubtreeHeat {
			t.Fatalf("truncation changed subtree_heat")
		}
		if !top.Root[i].Converged {
			t.Fatal("truncation lost the converged flag")
		}
	}
}

// TestHeatSampling pins the sampling contract: HeatSampleEvery=1 records
// every touched slice on the exclusive path, negative disables tracking
// entirely, and the heat census sums the per-slice counters.
func TestHeatSampling(t *testing.T) {
	data := dataset.Uniform(4000, 13)
	queries := workload.Uniform(dataset.Universe(), 64, 1e-3, 14)

	ix := New(dataset.Clone(data), Config{HeatSampleEvery: 1})
	ix.Complete()
	for _, q := range queries {
		ix.Query(q, nil)
	}
	rep := ix.Inspect(0)
	if rep.TotalHeat == 0 {
		t.Fatal("HeatSampleEvery=1 recorded no heat")
	}
	if rep.HeatSampleEvery != 1 {
		t.Fatalf("report sampling period = %d, want 1", rep.HeatSampleEvery)
	}
	var sum, max int64
	for _, s := range collectReports(rep.Root) {
		sum += s.Heat
		if s.Heat > max {
			max = s.Heat
		}
	}
	if sum != rep.TotalHeat || max != rep.MaxHeat {
		t.Fatalf("census heat (total %d, max %d) != walked heat (total %d, max %d)",
			rep.TotalHeat, rep.MaxHeat, sum, max)
	}
	slices, refined, byLevel := rep.HeatByLevel()
	var levelSum int64
	nSlices, nRefined := 0, 0
	for d := 0; d < geom.Dims; d++ {
		levelSum += byLevel[d]
		nSlices += slices[d]
		nRefined += refined[d]
	}
	if levelSum != rep.TotalHeat || nSlices != rep.Slices || nRefined != rep.SlicesRefined {
		t.Fatalf("HeatByLevel (%d heat, %d slices, %d refined) disagrees with census (%d, %d, %d)",
			levelSum, nSlices, nRefined, rep.TotalHeat, rep.Slices, rep.SlicesRefined)
	}

	// Negative disables: identical workload, zero heat.
	off := New(dataset.Clone(data), Config{HeatSampleEvery: -1})
	off.Complete()
	for _, q := range queries {
		off.Query(q, nil)
	}
	if rep := off.Inspect(0); rep.TotalHeat != 0 || rep.HeatSampleEvery != 0 {
		t.Fatalf("disabled heat tracking still recorded: %+v", rep)
	}
}

// TestHeatMonotoneUnderConcurrentSharedReads drives many concurrent
// shared-path queries (every one sampled) and checks the counters only ever
// grow — the -race run of this test is the proof the atomic touch counters
// are safe under the shared read path's concurrency.
func TestHeatMonotoneUnderConcurrentSharedReads(t *testing.T) {
	data := dataset.Uniform(8000, 15)
	ix := New(dataset.Clone(data), Config{HeatSampleEvery: 1})
	ix.Complete()
	queries := workload.Uniform(dataset.Universe(), 128, 1e-3, 16)

	before := ix.Inspect(0).TotalHeat
	const readers = 8
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var out []int32
			for i, q := range queries {
				var ok bool
				out, ok = ix.QueryShared(q, out[:0])
				if !ok {
					t.Errorf("reader %d: shared query %d fell back on a converged index", r, i)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	after := ix.Inspect(0)
	if after.TotalHeat <= before {
		t.Fatalf("heat did not grow under concurrent shared reads: %d -> %d", before, after.TotalHeat)
	}
	// Every touched slice of every query recorded: at least one touch per
	// query per reader (each query walks at least its level-0 slice).
	if min := int64(readers * len(queries)); after.TotalHeat < min {
		t.Fatalf("total heat %d < %d minimum touches", after.TotalHeat, min)
	}
}

// TestInspectDoesNotPerturbPersistedState pins the read-only contract:
// Save, then Inspect (full depth, heat enabled and recorded), then Save
// again — byte-identical snapshots. Heat counters live outside the
// persisted state on purpose (a restored index starts cold).
func TestInspectDoesNotPerturbPersistedState(t *testing.T) {
	data := dataset.Uniform(5000, 17)
	ix := New(dataset.Clone(data), Config{HeatSampleEvery: 1})
	for _, q := range workload.Uniform(dataset.Universe(), 48, 1e-3, 18) {
		ix.Query(q, nil)
	}

	var before bytes.Buffer
	if err := ix.Save(&before); err != nil {
		t.Fatal(err)
	}
	_ = ix.Inspect(0)
	_ = ix.Inspect(1)
	var after bytes.Buffer
	if err := ix.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("Inspect changed the persisted snapshot bytes")
	}

	// Round-trip: the restored index reports the same structure, cold heat.
	restored, err := Load(bytes.NewReader(after.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a, b := ix.Inspect(0), restored.Inspect(0)
	if a.Slices != b.Slices || a.SlicesRefined != b.SlicesRefined || a.Objects != b.Objects {
		t.Fatalf("restored census (%d/%d/%d) differs from original (%d/%d/%d)",
			b.Slices, b.SlicesRefined, b.Objects, a.Slices, a.SlicesRefined, a.Objects)
	}
	if b.TotalHeat != 0 {
		t.Fatalf("restored index carries %d heat; snapshots must not persist it", b.TotalHeat)
	}
	if b.HeatSampleEvery != 1 {
		t.Fatalf("restored index lost the sampling config: %d", b.HeatSampleEvery)
	}
}

// TestConvergedQueryNoAllocsWithHeat pins the acceptance criterion: the
// converged exclusive query path allocates nothing with heat tracking
// enabled at its default sampling rate — the touch counter is an atomic add
// on an existing node, never a heap object.
func TestConvergedQueryNoAllocsWithHeat(t *testing.T) {
	data := dataset.Uniform(100_000, 19)
	ix := New(data, Config{HeatSampleEvery: DefaultHeatSampleEvery})
	ix.Complete()
	queries := workload.Uniform(dataset.Universe(), 256, 1e-4, 20)
	out := make([]int32, 0, 4096)
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		out = ix.Query(queries[i%len(queries)], out[:0])
		i++
	})
	if allocs != 0 {
		t.Fatalf("converged query with heat tracking allocates %.1f/op, want 0", allocs)
	}
}
