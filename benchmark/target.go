package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	quasii "repro"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/shard"
)

// target is the system under test at one depth of the stack. The journey
// (journey.go) drives every workload through this one interface, so the
// same five phases run against a bare core index, a sharded index and a
// quasii-serve process, and each metric means the same thing at each depth.
//
// Queries name their box by pool index so that a target can prepare its
// wire form outside the clock; written objects are generated by the caller
// before its clock starts. client
// is the calling closed-loop client, 0 ≤ client < clients; calls with
// different client values may be concurrent.
type target interface {
	// Setup builds the system from nothing: generate the dataset and build
	// the index, or launch the process and wait until it is ready.
	Setup() error
	Query(client, qi int, out []int32) ([]int32, error)
	// Batch answers pool[first : first+batchSize]; the caller hands the
	// results back through ReleaseBatch once it has checked them.
	Batch(client, first int) ([][]int32, error)
	ReleaseBatch(results [][]int32)
	Insert(client int, o geom.Object) error
	Delete(client int, o geom.Object) (found bool, err error)
	// Probe reports, per object, whether a query of its own box returns it.
	Probe(client int, objs []geom.Object) ([]bool, error)
	// Cracks is a counter that stands still once the index has converged on
	// the queries it has seen.
	Cracks() (uint64, error)
	// Persist makes the current state recoverable where that is a separate
	// step (Save, Snapshot); Recover then crashes the system and brings it
	// back until it answers again. Only the time Recover takes is reported.
	// An in-process target loses its index in Persist already, memory
	// returned to the operating system: a process that comes back from a
	// crash starts with untouched pages, and whether Load found warm ones
	// left over in this process moved recovery_s by a quarter.
	Persist() error
	Recover() error
	// Durable reports whether acked writes must survive Recover.
	Durable() bool
	PeakRSSMiB() (float64, error)
	// Counters returns exact work counts for the diagnostics block.
	Counters() (map[string]float64, error)
	Close() error
}

// selfPeakRSSMiB reads VmHWM of this process.
func selfPeakRSSMiB() (float64, error) { return peakRSSMiB(os.Getpid()) }

func peakRSSMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb float64
		if _, err := fmt.Sscanf(sc.Text(), "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line for pid %d", pid)
}

// coreTarget is a bare QUASII index used from one goroutine, as in the
// paper. Its batch entry point is the public quasii.BatchQuery with one
// worker, its persistence Save and Load.
type coreTarget struct {
	in   *inputs
	dir  string
	ix   *core.Index
	pend int // updates since the last Flush
}

func (t *coreTarget) Setup() error {
	t.ix = core.New(t.in.generate(), core.Config{})
	t.pend = 0
	settle()
	return nil
}

// settle ends an in-process set-up with a collection. The index has just
// copied the generated objects into its own lanes, which leaves the whole
// dataset behind as garbage; without this the collector would reclaim it
// concurrently with query #1 and the cold stream, and did so for some runs
// and not for others. On the set-up clock, where a loader's clean-up belongs.
func settle() { runtime.GC() }

func (t *coreTarget) Query(_, qi int, out []int32) ([]int32, error) {
	return t.ix.Query(t.in.pool[qi], out), nil
}

func (t *coreTarget) Batch(_, first int) ([][]int32, error) {
	return quasii.BatchQuery(t.ix, t.in.pool[first:first+batchSize], 1), nil
}

func (t *coreTarget) ReleaseBatch([][]int32) {}

// wrote folds pending updates in at the serving layer's default cadence, so
// the library depths pay for Flush as often per update as the server does.
func (t *coreTarget) wrote() {
	if t.pend++; t.pend >= defaultFlushEvery {
		t.ix.Flush()
		t.pend = 0
	}
}

func (t *coreTarget) Insert(_ int, o geom.Object) error {
	t.ix.Append(o)
	t.wrote()
	return nil
}

func (t *coreTarget) Delete(_ int, o geom.Object) (bool, error) {
	found := t.ix.Delete(o.ID, o.Box)
	t.wrote()
	return found, nil
}

func (t *coreTarget) Probe(_ int, objs []geom.Object) ([]bool, error) {
	seen := make([]bool, len(objs))
	for i, o := range objs {
		seen[i] = contains(t.ix.Query(o.Box, nil), o.ID)
	}
	return seen, nil
}

func contains(ids []int32, id int32) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func (t *coreTarget) Cracks() (uint64, error) { return uint64(t.ix.Stats().Cracks), nil }

func (t *coreTarget) path() string { return filepath.Join(t.dir, "core.idx") }

func (t *coreTarget) Persist() error {
	f, err := os.Create(t.path())
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := t.ix.Save(w); err != nil {
		f.Close()
		return fmt.Errorf("saving core index: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	t.ix = nil // the crash: the in-memory index is gone
	debug.FreeOSMemory()
	return f.Close()
}

func (t *coreTarget) Recover() error {
	f, err := os.Open(t.path())
	if err != nil {
		return err
	}
	defer f.Close()
	ix, err := core.Load(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return fmt.Errorf("loading core index: %w", err)
	}
	t.ix = ix
	return nil
}

func (t *coreTarget) Durable() bool                { return true }
func (t *coreTarget) PeakRSSMiB() (float64, error) { return selfPeakRSSMiB() }
func (t *coreTarget) Close() error                 { t.ix = nil; return nil }

func (t *coreTarget) Counters() (map[string]float64, error) {
	return coreCounters(t.ix.Stats()), nil
}

func coreCounters(st core.Stats) map[string]float64 {
	return map[string]float64{
		"core.queries":         float64(st.Queries),
		"core.shared_queries":  float64(st.SharedQueries),
		"core.cracks":          float64(st.Cracks),
		"core.cracked_objects": float64(st.CrackedObjects),
		"core.slices_created":  float64(st.SlicesCreated),
		"core.objects_tested":  float64(st.ObjectsTested),
		"core.result_objects":  float64(st.ResultObjects),
	}
}

// shardTarget is the sharded index used as an embedded library from several
// goroutines.
type shardTarget struct {
	in   *inputs
	dir  string
	cfg  shard.Config
	ix   *shard.Index
	pend int
}

func shardCount(spec workloadSpec) int {
	if spec.Shards > 0 {
		return spec.Shards
	}
	return runtime.NumCPU()
}

func (t *shardTarget) Setup() error {
	t.cfg = shard.Config{Shards: shardCount(t.in.spec)}
	t.ix = shard.New(t.in.generate(), t.cfg)
	t.pend = 0
	settle()
	return nil
}

func (t *shardTarget) Query(_, qi int, out []int32) ([]int32, error) {
	return t.ix.Query(t.in.pool[qi], out), nil
}

func (t *shardTarget) Batch(_, first int) ([][]int32, error) {
	return t.ix.QueryBatch(t.in.pool[first : first+batchSize]), nil
}

func (t *shardTarget) ReleaseBatch(results [][]int32) { shard.RecycleResults(results) }

func (t *shardTarget) wrote() error {
	if t.pend++; t.pend >= defaultFlushEvery {
		t.pend = 0
		return t.ix.Flush()
	}
	return nil
}

func (t *shardTarget) Insert(_ int, o geom.Object) error {
	if err := t.ix.Insert(o); err != nil {
		return err
	}
	return t.wrote()
}

func (t *shardTarget) Delete(_ int, o geom.Object) (bool, error) {
	found, err := t.ix.Delete(o.ID, o.Box)
	if err != nil {
		return false, err
	}
	return found, t.wrote()
}

func (t *shardTarget) Probe(_ int, objs []geom.Object) ([]bool, error) {
	seen := make([]bool, len(objs))
	for i, o := range objs {
		seen[i] = contains(t.ix.Query(o.Box, nil), o.ID)
	}
	return seen, nil
}

func (t *shardTarget) Cracks() (uint64, error) { return uint64(t.ix.Stats().Core.Cracks), nil }

func (t *shardTarget) snapDir() string { return filepath.Join(t.dir, "shard.snap") }

func (t *shardTarget) Persist() error {
	if err := os.RemoveAll(t.snapDir()); err != nil {
		return err
	}
	if err := os.MkdirAll(t.snapDir(), 0o755); err != nil {
		return err
	}
	if err := t.ix.Snapshot(t.snapDir()); err != nil {
		return fmt.Errorf("snapshotting sharded index: %w", err)
	}
	t.ix = nil
	debug.FreeOSMemory()
	return nil
}

func (t *shardTarget) Recover() error {
	ix, err := shard.Restore(t.snapDir(), t.cfg)
	if err != nil {
		return fmt.Errorf("restoring sharded index: %w", err)
	}
	t.ix = ix
	return nil
}

func (t *shardTarget) Durable() bool                { return true }
func (t *shardTarget) PeakRSSMiB() (float64, error) { return selfPeakRSSMiB() }
func (t *shardTarget) Close() error                 { t.ix = nil; return nil }

func (t *shardTarget) Counters() (map[string]float64, error) {
	st := t.ix.Stats()
	c := coreCounters(st.Core)
	c["shard.shards"] = float64(st.Shards)
	c["shard.pending"] = float64(st.Pending)
	c["shard.deleted"] = float64(st.Deleted)
	return c, nil
}
