// Registry wiring for the sharded engine. The engine is instrumented in
// two tiers:
//
//   - Hot-path counters (shared-vs-exclusive path taken, fan-out width)
//     are maintained inline — each costs one nil check plus one atomic op
//     per shard query, preserving the allocation-free converged path.
//   - Everything else (the QUASII work counters, per-shard occupancy, crack
//     epochs) is already maintained by the engine for /stats, so /metrics
//     reads it at scrape time: one OnScrape hook walks the shards once and
//     caches a snapshot, and cheap CounterFunc/GaugeFunc closures serve the
//     cached fields. A scrape costs one Stats() sweep regardless of how
//     many series it feeds, and the query path is not taxed twice.
//
// The quasii_core_* series are the paper's convergence observables: slices
// refined and the shared-path ratio both rise monotonically as the index
// cracks toward its steady state, which is the curve the EDBT paper plots
// and the loadgen oracle now verifies live.

package shard

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// scrapeSnap is the per-scrape snapshot the OnScrape hook fills and the
// metric funcs read: the census rows, their aggregate, and the summed crack
// epochs.
type scrapeSnap struct {
	st     Stats
	epochs uint64
	rows   []shardRow
}

// row returns shard i's census row, zero before the first scrape.
func (s *scrapeSnap) row(i int) shardRow {
	if i >= len(s.rows) {
		return shardRow{}
	}
	return s.rows[i]
}

// Instrument registers the engine's metrics on reg. Call it once, before
// serving queries (the hot-path counters are attached without
// synchronization). A nil registry is a no-op.
func (ix *Index) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	ix.mShared = reg.Counter("quasii_shard_shared_queries_total",
		"Shard probes answered on the optimistic shared (read-locked) path.")
	ix.mExclusive = reg.Counter("quasii_shard_exclusive_queries_total",
		"Shard probes that took the budgeted-exclusive (cracking) path.")
	ix.mFanout = reg.Histogram("quasii_shard_fanout_width_shards",
		"Shards overlapped per query.", telemetry.SizeBuckets)
	ix.mFlush = reg.Histogram("quasii_shard_flush_duration_seconds",
		"Wall time of each Flush merging the pending inserts and tombstones into every shard.", telemetry.DurationBuckets)
	ix.mPanics = reg.Counter("quasii_shard_panics_total",
		"Panics recovered inside shard probes; each one quarantines its shard.")
	ix.forEach(func(sh *shardEntry) {
		sh.mShared = ix.mShared
		sh.mExclusive = ix.mExclusive
		sh.mPanics = ix.mPanics
	})

	// Build stages: fixed once New returns, zero on a restored index.
	for _, st := range []struct {
		stage string
		d     time.Duration
	}{{"partition", ix.built.Partition}, {"lanes", ix.built.Lanes}} {
		reg.GaugeFunc("quasii_shard_build_seconds",
			"Wall time New spent per build stage: STR tiling (partition) and sub-index construction (lanes); 0 on a restored index.",
			func() float64 { return st.d.Seconds() }, telemetry.L("stage", st.stage))
	}

	// Scrape-time tier: one census per scrape, cached for the funcs. A
	// quarantined shard contributes a zero row, so its labels stay stable.
	var mu sync.Mutex
	var snap scrapeSnap
	reg.OnScrape(func() {
		rows := ix.census()
		s := scrapeSnap{st: aggregate(rows), rows: rows}
		for _, r := range rows {
			s.epochs += r.epoch
		}
		mu.Lock()
		snap = s
		mu.Unlock()
	})
	get := func(f func(*scrapeSnap) float64) func() float64 {
		return func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return f(&snap)
		}
	}

	// The QUASII work counters — cumulative and monotone, so they render as
	// counters even though they are read, not incremented, here.
	reg.CounterFunc("quasii_core_queries_total",
		"Queries executed on the exclusive (refining) path, summed over sub-indexes.",
		get(func(s *scrapeSnap) float64 { return float64(s.st.Core.Queries) }))
	reg.CounterFunc("quasii_core_shared_queries_total",
		"Queries answered by the shared read-only walk, summed over sub-indexes.",
		get(func(s *scrapeSnap) float64 { return float64(s.st.Core.SharedQueries) }))
	reg.CounterFunc("quasii_core_cracks_total",
		"Two-way partition passes performed by refinement.",
		get(func(s *scrapeSnap) float64 { return float64(s.st.Core.Cracks) }))
	reg.CounterFunc("quasii_core_cracked_objects_total",
		"Objects moved (upper bound: scanned) across all crack passes.",
		get(func(s *scrapeSnap) float64 { return float64(s.st.Core.CrackedObjects) }))
	reg.CounterFunc("quasii_core_slices_created_total",
		"Slices materialized at all hierarchy levels.",
		get(func(s *scrapeSnap) float64 { return float64(s.st.Core.SlicesCreated) }))
	reg.CounterFunc("quasii_core_slices_refined_total",
		"Slices finalized with an exact MBB — the convergence curve of the paper.",
		get(func(s *scrapeSnap) float64 { return float64(s.st.Core.SlicesRefined) }))
	reg.CounterFunc("quasii_core_objects_tested_total",
		"Objects tested for final intersection during bottom-level scans.",
		get(func(s *scrapeSnap) float64 { return float64(s.st.Core.ObjectsTested) }))
	reg.CounterFunc("quasii_core_result_objects_total",
		"Objects reported as query results.",
		get(func(s *scrapeSnap) float64 { return float64(s.st.Core.ResultObjects) }))
	reg.CounterFunc("quasii_core_crack_epochs_total",
		"Structural-mutation epochs summed over sub-indexes; stands still once converged.",
		get(func(s *scrapeSnap) float64 { return float64(s.epochs) }))
	reg.GaugeFunc("quasii_core_shared_ratio",
		"Fraction of sub-index queries answered on the shared path (cumulative).",
		get(func(s *scrapeSnap) float64 {
			total := float64(s.st.Core.Queries) + float64(s.st.Core.SharedQueries)
			if total == 0 {
				return 0
			}
			return float64(s.st.Core.SharedQueries) / total
		}))

	reg.GaugeFunc("quasii_core_versions_live",
		"MVCC versions retained across all sub-indexes: one per shard when quiescent, one extra per shard while a checkpoint holds its pin. A plateau above that means a leaked pin.",
		get(func(s *scrapeSnap) float64 { return float64(s.st.VersionsLive) }))

	// Engine shape and occupancy.
	reg.GaugeFunc("quasii_shard_count_shards",
		"Spatial shards, quarantined ones included.",
		get(func(s *scrapeSnap) float64 { return float64(s.st.Shards) }))
	reg.GaugeFunc("quasii_shard_total_objects",
		"Live objects across all shards.",
		get(func(s *scrapeSnap) float64 { return float64(s.st.Objects) }))
	reg.GaugeFunc("quasii_shard_quarantined_shards",
		"Shards currently quarantined after a sub-index panic (queries skip them).",
		get(func(s *scrapeSnap) float64 { return float64(s.st.Quarantined) }))
	// One gauge set per spatial shard.
	for i := range ix.shards {
		lbl := telemetry.L("shard", strconv.Itoa(i))
		reg.GaugeFunc("quasii_shard_live_objects",
			"Live objects in this shard.",
			get(func(s *scrapeSnap) float64 { return float64(s.row(i).live) }), lbl)
		reg.GaugeFunc("quasii_shard_pending_objects",
			"Appended objects awaiting Flush in this shard.",
			get(func(s *scrapeSnap) float64 { return float64(s.row(i).pending) }), lbl)
		reg.GaugeFunc("quasii_shard_deleted_objects",
			"Tombstoned objects awaiting compaction in this shard.",
			get(func(s *scrapeSnap) float64 { return float64(s.row(i).deleted) }), lbl)
	}
}
