// Package shard implements a sharded parallel query engine on top of the
// single-threaded indexes of this module. The input objects are spatially
// partitioned into P shards by STR-style tiling (sort-tile-recursive, the
// same packing discipline the R-tree bulk loader uses), each shard gets its
// own QUASII sub-index (core.Index) and its own mutex.
//
// Concurrency comes from three directions:
//
//   - Inter-query: concurrent queries that touch disjoint shards proceed
//     fully in parallel. Because the shards tile the data spatially, a
//     low-selectivity query typically overlaps one or two shard bounding
//     boxes, so P shards sustain close to P-way query parallelism, where
//     the single global mutex of internal/syncidx sustains exactly 1.
//   - Intra-shard: each shard is guarded by an RWMutex, not a mutex. A
//     query first attempts the sub-index's optimistic shared read path
//     (core.Index.QueryShared) under the read lock: on a converged region —
//     QUASII's steady state, where slices are final and never cracked again
//     — any number of queries proceed through one shard in parallel. Only
//     when the shared walk reports unfinished refinement does the query
//     retry under the write lock, and then with a bounded crack budget
//     (Config.CrackBudget) so the exclusive section stays short and
//     readers never stall behind a cold region; the leftover refinement is
//     finished by later queries, the paper's incremental philosophy
//     applied to lock hold time.
//   - Intra-query: a large query overlapping many shards fans out across a
//     bounded worker pool and merges the per-shard ID sets.
//
// Adaptive sub-indexes still crack — the per-shard write lock makes that
// safe — so the engine turns QUASII's adaptive indexing into a multi-core
// system without touching the cracking code itself.
//
// The engine also accepts live updates (see Insert, Delete, Flush in
// update.go) and k-nearest-neighbor queries (KNN in knn.go).
//
// Every shard operation — range query, KNN, delete — is one probe ladder:
// the read-locked shared probe first, then — only when the sub-index
// reports unfinished refinement — the write-locked exclusive probe, which
// always carries the crack budget and never flushes. Both rungs, and every
// other call that mutates a sub-index, run under one panic-isolating guard
// (resilience.go). Every data change is an MVCC version published under the
// read lock, and every snapshot is written from pinned versions; there is no
// unversioned path.
package shard

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/telemetry"
)

// subIndex is the method set the engine calls on a shard's sub-index. The
// one production implementation is *core.Index; it stays an interface only
// so in-package tests can substitute a sub-index that panics on demand (see
// resilience_test.go) through newIndex's build hook.
type subIndex interface {
	Len() int
	// The probe ladder: a shared call reports ok == false when the touched
	// region still needs refinement, which only its budgeted twin performs —
	// under the write lock, with at most budget crack passes.
	QueryShared(q geom.Box, out []int32) ([]int32, bool)
	QueryBudgeted(q geom.Box, out []int32, budget int) []int32
	KNNShared(p geom.Point, k int) ([]core.Neighbor, bool)
	KNNBudgeted(p geom.Point, k, budget int) []core.Neighbor
	DeleteShared(id int32, hint geom.Box) (found, ok bool)
	DeleteBudgeted(id int32, hint geom.Box, budget int) bool
	// Append publishes a version under the shard's read lock; Flush and
	// Complete need the write lock.
	Append(objs ...geom.Object)
	Flush()
	Complete()
	// Pinned snapshots.
	PinVersion() *core.Version
	SaveVersion(w io.Writer, v *core.Version) error
	// Observation.
	DataMBB() geom.Box
	Pending() int
	Deleted() int
	LiveVersions() int
	Epoch() uint64
	Stats() core.Stats
	Inspect(maxDepth int) core.InspectReport
	CheckInvariants() error
}

// Config controls sharding. The zero value is usable: GOMAXPROCS shards,
// an equally sized worker pool, and QUASII sub-indexes with the paper's
// default configuration.
type Config struct {
	// Shards is the number of spatial shards P. Values < 1 select
	// runtime.GOMAXPROCS(0). The effective count never exceeds the number
	// of objects (every shard holds at least one object).
	Shards int
	// Workers bounds the goroutines a single Query may fan out across and
	// the pool QueryBatch schedules onto. Values < 1 select
	// min(shard count, GOMAXPROCS): fan-out beyond the hardware threads
	// only adds scheduling churn. Workers = 1 disables intra-query fan-out
	// entirely (multi-shard queries run inline, per-shard locks still
	// taken), which is the right mode when inter-query concurrency already
	// saturates the cores.
	Workers int
	// SubConfig configures the QUASII sub-index of every shard.
	SubConfig core.Config
	// CrackBudget bounds the crack (partition) passes one exclusive query
	// may perform on a shard: the query refines up to that many passes and
	// answers the rest by scanning, leaving the remainder to later queries.
	// This keeps write sections short so concurrent shared readers are
	// never stuck behind a cold region. 0 selects DefaultCrackBudget;
	// negative disables the bound (every exclusive query refines to
	// completion, the pre-RWMutex behaviour).
	CrackBudget int
}

// DefaultVersionHorizon bounds the MVCC version chain a sub-index may
// retain (live version plus pinned predecessors); CheckInvariants fails
// beyond it, because a longer chain means a leaked pin. A healthy engine
// holds 1 version per shard when quiescent and 2 during a checkpoint; 8
// leaves room for stacked snapshot readers in tests without masking a real
// leak.
const DefaultVersionHorizon = 8

// DefaultCrackBudget is the per-query crack budget when Config.CrackBudget
// is 0. Crack passes shrink geometrically as refinement deepens, so 64
// passes let a warm shard converge in a handful of queries while bounding
// one cold query's write-lock hold to a few sweeps over the shard.
const DefaultCrackBudget = 64

// Stats aggregates the state and work counters of all shards. Core sums the
// QUASII work counters of every sub-index.
type Stats struct {
	Shards       int        // number of spatial shards
	Objects      int        // total live objects indexed
	MinShardLen  int        // objects in the smallest healthy shard
	MaxShardLen  int        // objects in the largest healthy shard
	Quarantined  int        // shards quarantined after a sub-index panic
	Pending      int        // appended objects not yet folded in (see Flush)
	Deleted      int        // tombstoned objects awaiting compaction
	VersionsLive int        // MVCC versions retained across all sub-indexes
	Core         core.Stats // summed QUASII work counters
}

// shardEntry is one spatial shard: a sub-index behind its own read-write
// lock, the fixed bounding box of the objects assigned to it at build time
// (the tile, which routes inserts), and the live bounding box actually
// covered by its objects, which starts as the tile box and grows when an
// inserted object overhangs it. Queries read the live box lock-free, so it
// sits behind an atomic pointer and only ever grows (monotone, like
// QUASII's own maxExt bookkeeping): deletions never shrink it, which is
// conservative but always correct.
//
// The lock discipline: the shared probes — reads and version-publishing
// updates — run under mu.RLock, many through one shard in parallel, while
// anything that reorganizes the sub-index (the ladder's budgeted second
// rung, Flush, Complete) takes mu.Lock.
type shardEntry struct {
	mu          sync.RWMutex
	sub         subIndex
	tile        geom.Box // build-time STR tile MBB; immutable, routes inserts
	crackBudget int      // per-exclusive-query crack budget; < 0 = unlimited

	// Path counters, shared by all entries of one engine and nil until
	// Instrument attaches a registry (telemetry counters no-op on nil, so
	// the uninstrumented hot path pays one nil check per shard query).
	mShared    *telemetry.Counter
	mExclusive *telemetry.Counter
	mPanics    *telemetry.Counter

	bounds atomic.Pointer[geom.Box] // live MBB; read lock-free by queries

	// quarantined is set when a probe into this shard's sub-index panicked:
	// the structure can no longer be trusted, so queries, stats, updates and
	// snapshots all skip the shard (see resilience.go) instead of letting a
	// poisoned tile crash the process or corrupt a checkpoint.
	quarantined atomic.Bool
}

// boundsBox returns the shard's current live bounding box.
func (sh *shardEntry) boundsBox() geom.Box { return *sh.bounds.Load() }

// extendBounds grows the live bounding box to also cover b (CAS loop; safe
// against concurrent extenders and lock-free readers).
func (sh *shardEntry) extendBounds(b geom.Box) {
	for {
		cur := sh.bounds.Load()
		next := cur.Extend(b)
		if next == *cur {
			return
		}
		if sh.bounds.CompareAndSwap(cur, &next) {
			return
		}
	}
}

// Index is a sharded spatial index. It satisfies the module-wide Index
// interface and is safe for concurrent use.
type Index struct {
	// shards is fixed once New or Restore returns: every object, inserted
	// ones included, lives in one of these.
	shards  []*shardEntry
	workers int
	// crackBudget is the resolved Config.CrackBudget every entry inherits.
	crackBudget int
	// sem globally bounds intra-query fan-out goroutines across all
	// concurrent Query calls. Slots are never acquired nested, so the
	// semaphore cannot deadlock.
	sem chan struct{}

	// count tracks the live object total lock-free (+1 per Insert, -1 per
	// successful Delete), so liveness probes need not take shard locks.
	count atomic.Int64

	built BuildTimes // set once by New; zero after Restore

	// Engine-level metrics, nil until Instrument attaches a registry
	// (before serving, by contract). mFanout covers whole-query
	// observations; the path counters are copied onto every shardEntry by
	// Instrument, because queryShard has no *Index.
	mFanout    *telemetry.Histogram // shards overlapped per query
	mFlush     *telemetry.Histogram // wall time per Flush
	mShared    *telemetry.Counter
	mExclusive *telemetry.Counter
	mPanics    *telemetry.Counter
}

// New partitions data into cfg.Shards spatial shards and builds one
// sub-index per shard. The input slice is copied; the caller keeps its
// original order.
func New(data []geom.Object, cfg Config) *Index {
	return newIndex(data, cfg, coreBuilder(cfg.SubConfig))
}

// coreBuilder is the production build hook: a QUASII index per shard.
func coreBuilder(sub core.Config) func([]geom.Object) subIndex {
	return func(objs []geom.Object) subIndex { return core.New(objs, sub) }
}

// newIndex is New with the sub-index constructor exposed — the hook the
// quarantine tests use to arm a shard; production always passes coreBuilder.
func newIndex(data []geom.Object, cfg Config, build func([]geom.Object) subIndex) *Index {
	p := cfg.Shards
	if p < 1 {
		p = runtime.GOMAXPROCS(0)
	}
	t0 := time.Now()
	parts := partition(data, p)
	// partition's sort scratch (24 B/object) is garbage now. Collecting it
	// before the lanes are allocated lets them reuse its pages; left to the
	// pacer, it raised quasii-serve's peak RSS at 1 M objects by 3 %. Objects
	// and lanes hold no pointers, so the cycle has little to mark (about
	// 0.4 ms at 2 M objects).
	runtime.GC()
	t1 := time.Now()
	ix := newEngine(cfg, len(parts))
	for i, part := range parts {
		sh := ix.newEntry(build(part), geom.MBB(part))
		sh.bounds.Store(&sh.tile)
		ix.shards[i] = sh
	}
	ix.count.Store(int64(len(data)))
	ix.built = BuildTimes{Partition: t1.Sub(t0), Lanes: time.Since(t1)}
	return ix
}

// BuildTimes splits the wall time New spent building the index: Partition is
// the STR tiling (the radix sorts, the copy into tiles and collecting the
// sorts' scratch), Lanes the per-shard sub-index construction that follows
// it. Both are zero on an index that Restore loaded from a snapshot.
type BuildTimes struct {
	Partition, Lanes time.Duration
}

// BuildTimes reports how long New spent in each build stage.
func (ix *Index) BuildTimes() BuildTimes { return ix.built }

// newEngine resolves cfg into an engine with n empty shard slots; New and
// Restore fill them in.
func newEngine(cfg Config, n int) *Index {
	ix := &Index{
		shards:      make([]*shardEntry, n),
		workers:     effectiveWorkers(cfg.Workers, n),
		crackBudget: cfg.CrackBudget,
	}
	if ix.crackBudget == 0 {
		ix.crackBudget = DefaultCrackBudget
	}
	ix.sem = make(chan struct{}, ix.workers)
	return ix
}

// newEntry wraps a sub-index into a shard entry.
func (ix *Index) newEntry(sub subIndex, tile geom.Box) *shardEntry {
	return &shardEntry{sub: sub, tile: tile, crackBudget: ix.crackBudget}
}

// NumShards returns the effective spatial shard count (≤ Config.Shards for
// small datasets: every shard holds at least one object).
func (ix *Index) NumShards() int { return len(ix.shards) }

// tileUnion returns the union of the build-time tiles.
func (ix *Index) tileUnion() geom.Box {
	u := geom.EmptyBox()
	for _, sh := range ix.shards {
		u = u.Extend(sh.tile)
	}
	return u
}

// forEach calls f on every healthy shard. Quarantined shards are skipped:
// their sub-indexes can no longer be trusted not to panic, so walks (Len,
// Flush, KNN candidate collection) treat them as absent.
func (ix *Index) forEach(f func(sh *shardEntry)) {
	for _, sh := range ix.shards {
		if sh.quarantined.Load() {
			continue
		}
		f(sh)
	}
}

// Len returns the total number of live objects, read-locking each shard in
// turn (Len never mutates a sub-index, so it rides with shared readers).
func (ix *Index) Len() int {
	n := 0
	ix.forEach(func(sh *shardEntry) {
		sh.mu.RLock()
		n += sh.sub.Len()
		sh.mu.RUnlock()
	})
	return n
}

// ApproxLen returns the live object count without taking any locks. It is
// maintained by New, Insert and Delete and matches Len exactly unless
// duplicate IDs are deleted (a Delete tombstones every object carrying the
// ID but decrements the count by one). Use it where blocking behind a
// cracking query is unacceptable, e.g. liveness probes.
func (ix *Index) ApproxLen() int { return int(ix.count.Load()) }

// shardRow is one shard's line of the census. A quarantined shard yields a
// row with only that flag set: its sub-index is never probed.
type shardRow struct {
	quarantined                      bool
	live, pending, deleted, versions int
	epoch                            uint64
	core                             core.Stats
}

// census is the one per-shard walk behind Stats, Quarantined and the
// /metrics scrape: it read-locks each shard in turn and returns one row per
// shard in build order.
func (ix *Index) census() []shardRow {
	rows := make([]shardRow, len(ix.shards))
	for i, sh := range ix.shards {
		rows[i] = sh.row()
	}
	return rows
}

// row reads the shard's census row under its read lock.
func (sh *shardEntry) row() shardRow {
	if sh.quarantined.Load() {
		return shardRow{quarantined: true}
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return shardRow{
		live: sh.sub.Len(), pending: sh.sub.Pending(), deleted: sh.sub.Deleted(),
		versions: sh.sub.LiveVersions(), epoch: sh.sub.Epoch(), core: sh.sub.Stats(),
	}
}

// aggregate folds census rows, one per shard, into Stats.
func aggregate(rows []shardRow) Stats {
	st := Stats{Shards: len(rows)}
	first := true
	for _, r := range rows {
		if r.quarantined {
			st.Quarantined++
			continue
		}
		switch {
		case first:
			st.MinShardLen, st.MaxShardLen, first = r.live, r.live, false
		default:
			st.MinShardLen = min(st.MinShardLen, r.live)
			st.MaxShardLen = max(st.MaxShardLen, r.live)
		}
		st.Objects += r.live
		st.Pending += r.pending
		st.Deleted += r.deleted
		st.VersionsLive += r.versions
		st.Core.Queries += r.core.Queries
		st.Core.Cracks += r.core.Cracks
		st.Core.CrackedObjects += r.core.CrackedObjects
		st.Core.SlicesCreated += r.core.SlicesCreated
		st.Core.SlicesRefined += r.core.SlicesRefined
		st.Core.ObjectsTested += r.core.ObjectsTested
		st.Core.ResultObjects += r.core.ResultObjects
		st.Core.SharedQueries += r.core.SharedQueries
		st.Core.ScannedRows += r.core.ScannedRows
	}
	return st
}

// Stats aggregates the census. Collection is read-only, so on a converged
// index a /stats probe never blocks (or is blocked by) the concurrent query
// traffic.
func (ix *Index) Stats() Stats { return aggregate(ix.census()) }

// Complete finishes all outstanding refinement in every sub-index, shard by
// shard under each shard's write lock. Afterwards — until the next Flush —
// every query rides the shared read path, so Complete is the idle-time
// lever that turns an adaptive engine into its fully concurrent converged
// form.
func (ix *Index) Complete() {
	ix.forEach(func(sh *shardEntry) {
		sh.guard(true, func(sub subIndex) { sub.Complete() })
	})
}

// CheckInvariants validates the structural invariants of every sub-index,
// under each shard's write lock so a quiesced check sees a frozen
// structure, bounds every sub-index's MVCC version chain by
// DefaultVersionHorizon (a longer chain means a leaked pin), and requires
// every healthy shard's live bounds to contain its sub-index's data MBB. It
// returns the first violation found. Intended for tests and stress
// harnesses.
func (ix *Index) CheckInvariants() error {
	var err error
	ix.forEach(func(sh *shardEntry) {
		if err != nil {
			return
		}
		sh.mu.Lock()
		err = sh.sub.CheckInvariants()
		n := sh.sub.LiveVersions()
		data := sh.sub.DataMBB()
		sh.mu.Unlock()
		if err == nil && n > DefaultVersionHorizon {
			err = fmt.Errorf("shard: version chain holds %d versions, horizon is %d (leaked pin?)", n, DefaultVersionHorizon)
		}
		// Queries skip a shard whose live bounds miss q, so the bounds must
		// contain the data; written so that a NaN bound fails too.
		b := sh.boundsBox()
		for d := 0; err == nil && d < geom.Dims; d++ {
			if !(b.Min[d] <= data.Min[d] && data.Max[d] <= b.Max[d]) {
				err = fmt.Errorf("shard: live bounds %v do not contain the data MBB %v", b, data)
			}
		}
	})
	return err
}

// overlapping appends every shard whose live bounds intersect q, in shard
// order, so result merge order stays deterministic.
func (ix *Index) overlapping(q geom.Box, hit []*shardEntry) []*shardEntry {
	for _, sh := range ix.shards {
		if sh.boundsBox().Intersects(q) && !sh.quarantined.Load() {
			hit = append(hit, sh)
		}
	}
	return hit
}

// queryShard answers q against one shard by climbing the probe ladder:
// first the optimistic shared read path under the read lock (converged
// regions answer fully in parallel), then — only if the shared walk found
// unfinished refinement — the exclusive path under the write lock,
// crack-budgeted so the write section stays short. KNNCtx and Delete climb
// the same two rungs. tr, when non-nil, receives per-path stage durations
// (a sampled trace); the untraced path pays only the nil checks. Both rungs
// run under guard (resilience.go): a sub-index that panics quarantines its
// shard and the query carries on with the caller's buffer untouched,
// exactly as if the shard had not overlapped.
func queryShard(sh *shardEntry, q geom.Box, out []int32, tr *telemetry.Trace) []int32 {
	if sh.quarantined.Load() {
		return out
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	var res []int32
	var ok bool
	healthy := sh.guard(false, func(sub subIndex) { res, ok = sub.QueryShared(q, out) })
	if tr != nil {
		tr.StageSince(telemetry.StageShared, t0)
	}
	if !healthy {
		return out
	}
	if ok {
		sh.mShared.Inc()
		if tr != nil {
			tr.AddSharedProbe()
		}
		return res
	}
	if tr != nil {
		t0 = time.Now()
	}
	if !sh.guard(true, func(sub subIndex) { res = sub.QueryBudgeted(q, out, sh.crackBudget) }) {
		return out
	}
	sh.mExclusive.Inc()
	if tr != nil {
		tr.StageSince(telemetry.StageCrack, t0)
		tr.AddExclusiveProbe()
	}
	return res
}

// Query appends the IDs of all objects intersecting q to out and returns the
// extended slice. Queries overlapping a single shard run inline; queries
// overlapping several fan out across the worker pool and merge the
// per-shard results in shard order, so the output order is deterministic.
// Safe for concurrent use.
func (ix *Index) Query(q geom.Box, out []int32) []int32 {
	out, _ = ix.QueryCtx(context.Background(), q, out, nil)
	return out
}

// cancellable returns ctx when it can ever be cancelled and nil otherwise
// (a nil or Background-like context), so the checks between probes cost the
// hot path one nil comparison each.
func cancellable(ctx context.Context) context.Context {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return ctx
}

// cancelled reports why a cancellable context ended, nil while it has not.
func cancelled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// QueryCtx is Query with cooperative cancellation and an optional sampled
// stage trace. The serving layer threads each request's context down here
// so a client that disconnects (or blows its deadline) stops consuming
// shard probes; tr (nil in the common, unsampled case) receives the fan-out
// width and the per-shard shared/exclusive stage durations.
//
// Cancellation is probe-granular: the context is checked between shard
// probes, never inside one — a probe holds a shard lock and finishes what
// it started, so a cancelled query costs at most one more probe. When
// err != nil the returned slice is partial and must be discarded. Pooled
// per-shard buffers always go back to the pool and the fan-out always waits
// for its goroutines before returning, cancelled or not, so a cancelled
// query never leaves a goroutine writing into a recycled buffer.
func (ix *Index) QueryCtx(ctx context.Context, q geom.Box, out []int32, tr *telemetry.Trace) ([]int32, error) {
	ctx = cancellable(ctx)
	if err := cancelled(ctx); err != nil {
		return out, err
	}
	var hitBuf [16]*shardEntry
	hit := ix.overlapping(q, hitBuf[:0])
	ix.mFanout.Observe(float64(len(hit)))
	tr.SetFanout(len(hit))
	switch len(hit) {
	case 0:
		return out, nil
	case 1:
		return queryShard(hit[0], q, out, tr), nil
	}
	if ix.workers <= 1 {
		return querySerial(ctx, hit, q, out, tr)
	}
	// Per-shard scratch results come from the engine's buffer pool and are
	// returned after the merge, so steady-state fan-out performs no slice
	// allocation. The pointer array lives on the stack for typical fan-outs.
	var resArr [16]*[]int32
	results := resArr[:]
	if len(hit) > len(results) {
		results = make([]*[]int32, len(hit))
	}
	var wg sync.WaitGroup
	var err error
	for k := 1; k < len(hit); k++ {
		if err = cancelled(ctx); err != nil {
			break // results[k:] stay nil; the merge below skips them
		}
		// Acquire a pool slot without blocking: when concurrent queries
		// already saturate the pool, waiting for a slot is strictly worse
		// than answering the shard inline on this goroutine.
		buf := getIDBuf()
		results[k] = buf
		select {
		case ix.sem <- struct{}{}:
			wg.Add(1)
			// The goroutine receives its shard entry as an argument rather
			// than capturing hit: a closure over hit would force the
			// stack-allocated hitBuf to the heap, costing the single-shard
			// fast path an allocation per query.
			go func(sh *shardEntry, buf *[]int32) {
				defer wg.Done()
				*buf = queryShard(sh, q, (*buf)[:0], tr)
				<-ix.sem
			}(hit[k], buf)
		default:
			*buf = queryShard(hit[k], q, (*buf)[:0], tr)
		}
	}
	// The calling goroutine handles the first shard itself instead of
	// blocking idle, appending straight into out; it holds no semaphore
	// slot, so the pool bound applies to the spawned goroutines only.
	if err == nil {
		if err = cancelled(ctx); err == nil {
			out = queryShard(hit[0], q, out, tr)
		}
	}
	wg.Wait()
	// Merge in shard order: the output order is deterministic regardless of
	// which shards ran on the pool.
	for _, r := range results[1:len(hit)] {
		if r == nil {
			continue
		}
		if err == nil {
			out = append(out, (*r)...)
		}
		putIDBuf(r)
	}
	return out, err
}

// querySerial answers q against every hit shard inline, in shard order,
// checking ctx between shards. QueryBatchCtx uses it too: with many
// in-flight queries, inter-query parallelism already saturates the cores,
// and per-query fan-out would only add goroutine churn.
func querySerial(ctx context.Context, hit []*shardEntry, q geom.Box, out []int32, tr *telemetry.Trace) ([]int32, error) {
	for _, sh := range hit {
		if err := cancelled(ctx); err != nil {
			return out, err
		}
		out = queryShard(sh, q, out, tr)
	}
	return out, nil
}
