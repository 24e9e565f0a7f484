// Registry wiring for the durable store: WAL append/fsync latency and
// volume, checkpoint count/duration/failures, and the live WAL size. The
// wal.Metrics value is owned here and re-attached to every successor log a
// checkpoint rotation creates, so the quasii_wal_* series are continuous
// across rotations instead of resetting with each generation.

package durable

import (
	"repro/internal/faultfs"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Instrument registers the store's metrics on reg and attaches WAL
// instrumentation to the current (and every future) log. Call it once,
// right after Open. A nil registry is a no-op.
func (s *Store) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.mUpdates = reg.Counter("quasii_store_updates_total",
		"Accepted durable update operations (insert batches and deletes).")
	s.mCkpts = reg.Counter("quasii_store_checkpoints_total",
		"Checkpoints completed since the store opened.")
	s.mCkptFailures = reg.Counter("quasii_store_checkpoint_failures_total",
		"Checkpoint attempts that failed and left the store on its old generation.")
	s.mCkptDur = reg.Histogram("quasii_store_checkpoint_duration_seconds",
		"Wall time of one checkpoint: snapshot write, WAL rotation, retirement.",
		telemetry.DurationBuckets)
	s.mCkptPause = reg.Histogram("quasii_durable_checkpoint_pause_seconds",
		"Update pause of one checkpoint — the cut only (WAL swap plus per-shard version pin); the snapshot itself writes with updates flowing.",
		telemetry.DurationBuckets)
	reg.GaugeFunc("quasii_store_wal_size_bytes",
		"Current write-ahead log length.",
		func() float64 { return float64(s.WALSize()) })
	reg.GaugeFunc("quasii_store_snapshot_seq",
		"Sequence number of the live snapshot generation.",
		func() float64 { return float64(s.Seq()) })
	s.mRetries = reg.Counter("quasii_wal_retry_total",
		"WAL appends retried after a transient failure (ENOSPC, EAGAIN, EINTR).")
	reg.GaugeFunc("quasii_durable_degraded",
		"1 while the store is in degraded read-only mode (writes 503, reads flow), 0 otherwise.",
		func() float64 {
			if d, _ := s.Degraded(); d {
				return 1
			}
			return 0
		})
	reg.CounterFunc("quasii_fault_injected_total",
		"Faults injected by the fault-injection file system; 0 (and inert) when the store runs on the real one.",
		func() float64 {
			if ff, ok := s.fs.(*faultfs.FaultFS); ok {
				return float64(ff.Injected())
			}
			return 0
		})

	m := &wal.Metrics{
		Appends: reg.Counter("quasii_wal_appends_total",
			"Records committed to the write-ahead log."),
		AppendedBytes: reg.Counter("quasii_wal_appended_bytes_total",
			"Framed bytes committed to the write-ahead log."),
		AppendSeconds: reg.Histogram("quasii_wal_append_duration_seconds",
			"Commit latency of one WAL record, fsync included under the always policy.",
			telemetry.DurationBuckets),
		Fsyncs: reg.Counter("quasii_wal_fsyncs_total",
			"Explicit WAL fsyncs (per-append or interval cadence)."),
		FsyncSeconds: reg.Histogram("quasii_wal_fsync_duration_seconds",
			"Latency of one WAL fsync.",
			telemetry.DurationBuckets),
	}
	s.updMu.Lock()
	s.walMetrics = m
	if s.log != nil {
		s.log.SetMetrics(m)
	}
	s.updMu.Unlock()
}

// DurabilityStats reports the durability state the serving layer folds into
// /stats: the live snapshot sequence, the WAL length in bytes, checkpoints
// completed since Open, and the duration of the most recent one (0 before
// the first).
func (s *Store) DurabilityStats() (snapshotSeq uint64, walBytes int64, checkpoints int64, lastCheckpointSeconds float64) {
	s.updMu.RLock()
	snapshotSeq = s.seq
	walBytes = s.log.Size()
	s.updMu.RUnlock()
	checkpoints = s.ckptCount.Load()
	lastCheckpointSeconds = float64(s.ckptLastNS.Load()) / 1e9
	return
}
