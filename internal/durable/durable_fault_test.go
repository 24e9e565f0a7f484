package durable

import (
	"errors"
	"syscall"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/geom"
	"repro/internal/ioerr"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// sweepOp is one step of the deterministic crash-sweep workload: an insert,
// a delete, or a checkpoint (which changes no logical state).
type sweepOp struct {
	insert  *geom.Object
	delID   int32
	delHint geom.Box
	ckpt    bool
}

func sweepWorkload() []sweepOp {
	at := func(x float64, id int32) *geom.Object {
		o := geom.Object{Box: geom.BoxAt(geom.Point{x, x, x}, 2), ID: id}
		return &o
	}
	del := func(x float64, id int32) sweepOp {
		return sweepOp{delID: id, delHint: geom.BoxAt(geom.Point{x, x, x}, 2)}
	}
	return []sweepOp{
		{insert: at(10, 1_000_001)},
		{insert: at(30, 1_000_002)},
		{insert: at(50, 1_000_003)},
		del(30, 1_000_002),
		{ckpt: true},
		{insert: at(70, 1_000_004)},
		{insert: at(90, 1_000_005)},
		del(70, 1_000_004),
		{ckpt: true},
		{insert: at(110, 1_000_006)},
		del(10, 1_000_001),
		{insert: at(130, 1_000_007)},
	}
}

// sweepModel returns the expected live write-path IDs after the first n
// workload ops applied on top of the base dataset.
func sweepModel(ops []sweepOp, n int) map[int32]bool {
	ids := make(map[int32]bool)
	for i := 0; i < n && i < len(ops); i++ {
		switch {
		case ops[i].insert != nil:
			ids[ops[i].insert.ID] = true
		case ops[i].delID != 0:
			delete(ids, ops[i].delID)
		}
	}
	return ids
}

const sweepWriteBase = 1_000_000

// sweepIDs queries the whole universe and returns the write-path IDs (the
// base dataset is identical across runs, so only the workload IDs can
// differ).
func sweepIDs(ix *shard.Index) map[int32]bool {
	all := ix.Query(dataset.Universe(), nil)
	ids := make(map[int32]bool)
	for _, id := range all {
		if id >= sweepWriteBase {
			ids[id] = true
		}
	}
	return ids
}

func sameIDSet(a, b map[int32]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// runSweepWorkload opens a store over fsys and drives the workload,
// returning the store (nil if Open itself failed) and the number of ops
// acknowledged before the first failure. Every op is attempted; once the
// crash latch trips they all fail fast, so the acked ops are a prefix.
func runSweepWorkload(t *testing.T, dir string, fsys faultfs.FS, base []geom.Object, ops []sweepOp) (*Store, int) {
	t.Helper()
	store, err := Open(dir, Options{
		Shard:        shard.Config{Shards: 2},
		Bootstrap:    func() []geom.Object { return base },
		Fsync:        FsyncAlways,
		FS:           fsys,
		RecoverEvery: time.Hour, // keep the probe out of the sweep
	})
	if err != nil {
		return nil, 0
	}
	acked := len(ops)
	failed := false
	for i, op := range ops {
		var err error
		switch {
		case op.insert != nil:
			err = store.Insert(*op.insert)
		case op.delID != 0:
			_, err = store.Delete(op.delID, op.delHint)
		case op.ckpt:
			_, err = store.Checkpoint()
		}
		if err != nil && !failed {
			failed = true
			acked = i
		}
		if err == nil && failed {
			t.Fatalf("op %d succeeded after an earlier op failed: acked set is not a prefix", i)
		}
	}
	return store, acked
}

// TestCrashPointSweep is the registered-write-site chaos harness: it first
// counts every mutating file-system operation the full workload performs
// (bootstrap, WAL appends and fsyncs, two checkpoint rotations), then
// replays the workload once per site with a crash injected exactly there,
// reopens the directory with the real file system, and checks the
// recovered index against the acked-prefix oracle. The one permitted
// divergence is the in-flight op: logged to the WAL but failed before
// acknowledgement, its replay after the crash is benign (prefix+1).
func TestCrashPointSweep(t *testing.T) {
	base := dataset.Uniform(120, 91)
	ops := sweepWorkload()

	counter := faultfs.New(nil, faultfs.Config{})
	store, acked := runSweepWorkload(t, t.TempDir(), counter, base, ops)
	if store == nil || acked != len(ops) {
		t.Fatalf("fault-free pass failed: store=%v acked=%d/%d", store != nil, acked, len(ops))
	}
	steps := counter.Steps()
	if steps < 20 {
		t.Fatalf("suspiciously few write sites counted: %d", steps)
	}
	t.Logf("sweeping %d crash points over %d ops", steps, len(ops))

	for k := int64(1); k <= steps; k++ {
		dir := t.TempDir()
		ff := faultfs.New(nil, faultfs.Config{CrashStep: k})
		store, acked := runSweepWorkload(t, dir, ff, base, ops)
		if store != nil {
			if !ff.Crashed() && acked != len(ops) {
				t.Fatalf("crash step %d: op failed without the latch tripping", k)
			}
			store.Close() // stops background goroutines; errors expected post-crash
		}

		reopened, err := Open(dir, Options{
			Shard:     shard.Config{Shards: 2},
			Bootstrap: func() []geom.Object { return base },
		})
		if err != nil {
			t.Fatalf("crash step %d: recovery open failed: %v", k, err)
		}
		got := sweepIDs(reopened.Index())
		exact := sweepModel(ops, acked)
		inflight := sweepModel(ops, acked+1)
		if !sameIDSet(got, exact) && !sameIDSet(got, inflight) {
			t.Fatalf("crash step %d: recovered write-IDs %v, want acked prefix %v or prefix+in-flight %v (acked %d/%d ops)",
				k, got, exact, inflight, acked, len(ops))
		}
		if got, want := reopened.Index().Len(), len(base)+len(got); got != want {
			// len cross-check so a base-dataset object lost to the crash
			// cannot hide behind the write-ID filter.
			t.Fatalf("crash step %d: recovered Len %d, want %d", k, got, want)
		}
		if err := reopened.Close(); err != nil {
			t.Fatalf("crash step %d: close after recovery: %v", k, err)
		}
	}
}

// TestDegradedModeOnPersistentFsyncFailure drives the store into degraded
// read-only mode with an unremitting fsync fault, checks that reads keep
// answering while writes fail fast with ErrDegraded, then clears the fault
// and waits for the background checkpoint probe to restore read-write
// service.
func TestDegradedModeOnPersistentFsyncFailure(t *testing.T) {
	base := dataset.Uniform(300, 92)
	ff := faultfs.New(nil, faultfs.Config{})
	reg := telemetry.NewRegistry()
	store, err := Open(t.TempDir(), Options{
		Shard:        shard.Config{Shards: 2},
		Bootstrap:    func() []geom.Object { return base },
		Fsync:        FsyncAlways,
		FS:           ff,
		RecoverEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	store.Instrument(reg)
	defer store.Close()

	good := geom.Object{Box: geom.BoxAt(geom.Point{20, 20, 20}, 2), ID: 2_000_001}
	if err := store.Insert(good); err != nil {
		t.Fatalf("healthy insert: %v", err)
	}

	// The disk starts failing every fsync.
	ff.SetRules([]*faultfs.Rule{{Kind: faultfs.KindErr, Op: faultfs.OpSync}})
	victim := geom.Object{Box: geom.BoxAt(geom.Point{40, 40, 40}, 2), ID: 2_000_002}
	err = store.Insert(victim)
	if !errors.Is(err, ioerr.ErrDegraded) {
		t.Fatalf("insert under fsync failure: %v, want ErrDegraded", err)
	}
	if deg, reason := store.Degraded(); !deg || reason == "" {
		t.Fatalf("Degraded() = %v, %q after persistent fsync failure", deg, reason)
	}
	// The failed insert must not be in the index: acked state only.
	if ids := store.Index().Query(victim.Box, nil); len(ids) != 0 {
		t.Fatalf("unacknowledged insert visible in the index: %v", ids)
	}
	// Writes fail fast now...
	if err := store.Insert(victim); !errors.Is(err, ioerr.ErrDegraded) {
		t.Fatalf("second insert: %v, want fast ErrDegraded", err)
	}
	if _, err := store.Delete(good.ID, good.Box); !errors.Is(err, ioerr.ErrDegraded) {
		t.Fatalf("delete while degraded: %v, want ErrDegraded", err)
	}
	if _, err := store.Checkpoint(); !errors.Is(err, ioerr.ErrDegraded) {
		t.Fatalf("checkpoint while degraded: %v, want ErrDegraded", err)
	}
	// ...but reads keep flowing, converged data included.
	if ids := store.Index().Query(good.Box, nil); len(ids) == 0 {
		t.Fatal("converged read returned nothing while degraded")
	}

	// The operator fixes the disk; the checkpoint probe must clear the
	// flag without intervention.
	ff.SetRules(nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if deg, _ := store.Degraded(); !deg {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("store did not leave degraded mode after faults cleared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Read-write service is back and durable.
	if err := store.Insert(victim); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
	if ids := store.Index().Query(victim.Box, nil); len(ids) == 0 {
		t.Fatal("post-recovery insert not visible")
	}
}

// TestTransientENOSPCRetriesWithoutDegrading: a short ENOSPC burst is
// absorbed by the bounded retry — the write eventually acks and the store
// never degrades.
func TestTransientENOSPCRetriesWithoutDegrading(t *testing.T) {
	ff := faultfs.New(nil, faultfs.Config{})
	store, err := Open(t.TempDir(), Options{
		Shard:     shard.Config{Shards: 2},
		Bootstrap: func() []geom.Object { return dataset.Uniform(100, 93) },
		Fsync:     FsyncNever,
		FS:        ff,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	ff.SetRules([]*faultfs.Rule{{
		Kind: faultfs.KindENOSPC, Op: faultfs.OpWrite, PathContains: "wal-", Times: 2,
	}})
	obj := geom.Object{Box: geom.BoxAt(geom.Point{60, 60, 60}, 2), ID: 3_000_001}
	if err := store.Insert(obj); err != nil {
		t.Fatalf("insert with transient ENOSPC burst: %v", err)
	}
	if deg, _ := store.Degraded(); deg {
		t.Fatal("transient burst must not degrade the store")
	}
	if ff.Injected() != 2 {
		t.Fatalf("injected = %d, want 2 (both ENOSPC hits consumed)", ff.Injected())
	}
	if ids := store.Index().Query(obj.Box, nil); len(ids) == 0 {
		t.Fatal("retried insert not visible")
	}
}

// TestExhaustedRetriesDegrade: ENOSPC that outlasts the retry budget is a
// persistent fault and must flip the store into degraded mode.
func TestExhaustedRetriesDegrade(t *testing.T) {
	ff := faultfs.New(nil, faultfs.Config{})
	store, err := Open(t.TempDir(), Options{
		Shard:         shard.Config{Shards: 2},
		Bootstrap:     func() []geom.Object { return dataset.Uniform(100, 94) },
		Fsync:         FsyncNever,
		FS:            ff,
		AppendRetries: 2,
		RecoverEvery:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	ff.SetRules([]*faultfs.Rule{{Kind: faultfs.KindENOSPC, Op: faultfs.OpWrite}})
	obj := geom.Object{Box: geom.BoxAt(geom.Point{60, 60, 60}, 2), ID: 3_000_002}
	err = store.Insert(obj)
	if !errors.Is(err, ioerr.ErrDegraded) {
		t.Fatalf("insert with persistent ENOSPC: %v, want ErrDegraded", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("degraded error should carry its cause; got %v", err)
	}
	ff.SetRules(nil)
}

// TestFailedCheckpointLeavesOldGeneration: a checkpoint rotation that dies
// mid-way (rename fault) is an error, not an outage — the store keeps
// serving and accepting writes on the old generation, and the next attempt
// succeeds.
func TestFailedCheckpointLeavesOldGeneration(t *testing.T) {
	ff := faultfs.New(nil, faultfs.Config{})
	store, err := Open(t.TempDir(), Options{
		Shard:     shard.Config{Shards: 2},
		Bootstrap: func() []geom.Object { return dataset.Uniform(100, 95) },
		Fsync:     FsyncNever,
		FS:        ff,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	obj := geom.Object{Box: geom.BoxAt(geom.Point{80, 80, 80}, 2), ID: 4_000_001}
	if err := store.Insert(obj); err != nil {
		t.Fatal(err)
	}
	seqBefore := store.Seq()

	ff.SetRules([]*faultfs.Rule{{
		Kind: faultfs.KindErr, Op: faultfs.OpRename, PathContains: "snap-", Times: 1,
	}})
	if _, err := store.Checkpoint(); err == nil {
		t.Fatal("checkpoint must surface the injected rename failure")
	}
	if store.Seq() != seqBefore {
		t.Fatalf("failed checkpoint moved seq %d -> %d", seqBefore, store.Seq())
	}
	// Still read-write on the old generation.
	obj2 := geom.Object{Box: geom.BoxAt(geom.Point{85, 85, 85}, 2), ID: 4_000_002}
	if err := store.Insert(obj2); err != nil {
		t.Fatalf("insert after failed checkpoint: %v", err)
	}
	// Fault consumed; the next checkpoint rotates cleanly. The failed
	// attempt died after its cut (the rename is in the publish phase), so
	// the live WAL already ran one generation ahead of CURRENT and the
	// retry lands on a fresh generation: seqBefore+2, not +1 — generation
	// numbers may skip, sequence numbers never do.
	seq, err := store.Checkpoint()
	if err != nil {
		t.Fatalf("retried checkpoint: %v", err)
	}
	if seq != seqBefore+2 {
		t.Fatalf("retried checkpoint seq %d, want %d", seq, seqBefore+2)
	}
	if ids := store.Index().Query(obj2.Box, nil); len(ids) == 0 {
		t.Fatal("object lost across failed-then-retried checkpoint")
	}
}
