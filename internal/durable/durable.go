// Package durable makes the sharded serving stack restartable: a Store
// owns a shard.Index, a data directory, and a write-ahead log, and keeps
// the invariant
//
//	durable state = latest complete snapshot + WAL tail
//
// at all times. Opening a directory restores the latest snapshot (every
// shard's accumulated refinement included — nothing is re-cracked) and
// replays the WAL records accepted after it was taken; a checkpoint writes
// a fresh snapshot and retires the log.
//
// # Directory layout
//
//	CURRENT          text file naming the live snapshot sequence ("7\n")
//	snap-0000007/    snapshot directory (shard files + manifest, see
//	                 shard.Snapshot); immutable once CURRENT names it
//	wal-0000007.log  updates accepted since snapshot 7
//
// # Crash safety and the zero-pause checkpoint
//
// A checkpoint never pauses updates for the duration of the snapshot.
// Rotation runs in four phases:
//
//  1. Prepare (updates flowing): the successor WAL file and the snapshot
//     staging directory are created.
//  2. The cut (updates paused — the only such instants, microseconds): the
//     live log is swapped to the successor WAL and every shard's current
//     MVCC version is pinned (shard.Index.PinVersions). Everything
//     acknowledged before the cut is in the pinned versions and the old
//     WAL; everything after goes to the successor WAL and stays visible to
//     readers immediately.
//  3. Publish (updates flowing): the pinned versions are serialized
//     (shard.Index.SnapshotPinnedFS — updates landing meanwhile cannot
//     perturb them), the directory is fsynced and renamed into place, and
//     CURRENT is atomically pointed at the new generation.
//  4. Retire: the store's in-memory generation advances, the pins are
//     released (letting the sub-indexes garbage-collect the superseded
//     versions), and generations beyond the retention window are deleted.
//
// Open runs the same rotation for its own two cases (generation 1 of an
// empty directory; rolling a WAL chain forward), so WAL-create → cut →
// publish → CURRENT holds there too. CURRENT moves last: a bootstrap that
// crashes after creating the WAL leaves no CURRENT, and the next Open
// bootstraps again over the debris.
//
// A crash before the CURRENT rename recovers from the old snapshot plus
// the WAL CHAIN: the old generation's complete WAL followed by any
// successor WALs a mid-checkpoint crash left behind (records are numbered
// by position, so the chain replays in order with no gaps or overlaps);
// Open then rolls the chain forward into a fresh checkpoint so the
// invariant "one live WAL" is restored. A crash after the rename recovers
// from the new snapshot plus the successor WAL. Updates themselves are
// logged before they are applied or acknowledged, so the WAL can only run
// ahead of the in-memory state, never behind — replaying an unacknowledged
// tail record after a crash is benign, losing an acknowledged one is
// impossible (under FsyncAlways; the other policies trade the fsync for a
// bounded window). A checkpoint that fails after its cut leaves the store
// correct but mid-chain (live WAL one generation ahead of CURRENT); the
// next successful checkpoint — or recovery — reconverges, which is why
// generation numbers may skip after a failed attempt.
//
// Insert, Delete and Apply share one log-then-apply body (update) and, with
// WAL replay, one opcode dispatch (apply); every rotation is
// checkpointPinned and every publish InstallCurrent.
package durable

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/geom"
	"repro/internal/ioerr"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// FsyncPolicy names the WAL sync cadence. See wal.SyncPolicy.
type FsyncPolicy string

const (
	// FsyncAlways fsyncs every update before acknowledging it (default).
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval fsyncs on a background cadence (Options.FsyncEvery):
	// a crash loses at most that window of acknowledged updates.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNever leaves flushing to the operating system.
	FsyncNever FsyncPolicy = "never"
)

// Options configures Open.
type Options struct {
	// Shard carries the engine's runtime knobs (Workers, CrackBudget,
	// SubConfig), applied both when bootstrapping and when restoring.
	Shard shard.Config
	// Bootstrap supplies the initial dataset when the directory holds no
	// snapshot yet. Nil bootstraps an empty index.
	Bootstrap func() []geom.Object
	// Fsync selects the WAL durability/latency trade-off. Empty selects
	// FsyncAlways.
	Fsync FsyncPolicy
	// FsyncEvery is the background sync cadence under FsyncInterval.
	// 0 selects 100ms.
	FsyncEvery time.Duration
	// CheckpointEvery triggers an automatic checkpoint after that many
	// accepted update operations (insert batches and deletes). 0 disables
	// automatic checkpointing; Checkpoint and Close still snapshot.
	CheckpointEvery int
	// Logger receives the store's structured log records: restore/replay
	// provenance, checkpoint rotations, and background checkpoint failures
	// (which have no caller to return an error to). Nil discards them.
	Logger *slog.Logger
	// FS is the file system the WAL and snapshot writers run on. Nil
	// selects the real one (faultfs.OS); tests and the chaos harness
	// install a faultfs.FaultFS to inject fsync errors, ENOSPC, torn
	// writes, and crash points at every write/rename/sync site.
	FS faultfs.FS
	// AppendRetries bounds how many times a transiently-failed WAL append
	// (ENOSPC, EAGAIN, EINTR) is retried before the store gives up and
	// enters degraded mode. 0 selects 3; negative disables retries. The
	// first retry sleeps 5ms, and each later one doubles that.
	AppendRetries int
	// RecoverEvery is the cadence at which a degraded store probes the
	// disk (by attempting a checkpoint to a fresh generation) to discover
	// the fault has cleared. 0 selects 5s.
	RecoverEvery time.Duration
	// RetainGenerations keeps that many snapshot+WAL generations on disk
	// (a checkpoint garbage-collects older ones). Minimum and default 2:
	// a bootstrapping follower must always be able to stream a stable
	// generation while a new checkpoint lands underneath it.
	RetainGenerations int
}

// Store is a durable sharded index. Queries go straight to Index() — the
// store adds no read-path overhead — while Insert and Delete are logged
// before they are applied. All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	ix   *shard.Index

	// updMu orders updates against the checkpoint CUT: updates hold it
	// shared, a checkpoint holds it exclusively only across the WAL swap
	// and version pinning (microseconds) so the cut is precise — nothing
	// acknowledged is missing from the pinned versions, nothing in the
	// successor WAL is already inside them. The snapshot itself is written
	// outside the lock, from the pins.
	updMu sync.RWMutex
	// opMu makes one update's append+apply atomic with respect to other
	// updates, so the WAL's record order always equals the order the
	// operations reached the index: without it, a concurrent insert and
	// delete of the same ID could apply in one order and replay in the
	// other, making recovered state diverge from the acknowledged live
	// state. Updates were already near-serial (the WAL mutex plus the
	// per-update fsync), so the lost concurrency is the index apply only.
	// Always acquired inside updMu's read side, never the other way.
	opMu sync.Mutex
	log  *wal.Log
	seq  uint64
	// walSeq is the generation of the live WAL. Equal to seq except
	// between a checkpoint's cut and its publish (and after a checkpoint
	// that failed post-cut), when the live WAL runs one or more
	// generations ahead of CURRENT. Read and written under ckptMu (plus
	// updMu exclusively for the cut itself); Open is single-threaded.
	walSeq uint64

	// ckptMu serializes whole checkpoints (the updMu exclusive section is
	// only part of one).
	ckptMu sync.Mutex

	// Replication bookkeeping (see repl.go): nextSeq is the global
	// sequence the next accepted record will carry; genStart maps each
	// retained generation to its start sequence; genPins blocks GC of
	// generations a replication stream is reading. genMu is only ever
	// taken inside updMu (either side), never the other way around.
	nextSeq  atomic.Uint64
	genMu    sync.Mutex
	genStart map[uint64]uint64
	genPins  map[uint64]int
	// notifyCh is closed-and-replaced on every accepted record — the
	// broadcast behind UpdateNotify (long-polling WAL followers).
	notifyMu sync.Mutex
	notifyCh chan struct{}

	updates   atomic.Int64 // accepted update ops since the last checkpoint
	ckptGate  atomic.Bool  // an automatic checkpoint is in flight
	closed    atomic.Bool
	syncStop  chan struct{}
	syncGroup sync.WaitGroup

	// fs is Options.FS or the real file system; never nil after Open.
	fs faultfs.FS

	// Degraded read-only mode: set when persistent I/O failure makes the
	// WAL untrustworthy. Writes fail fast with ioerr.ErrDegraded (503 at
	// the HTTP layer), reads keep flowing, and a background probe retries a
	// checkpoint until the disk proves writable again. degradedReason holds
	// a string; recGate keeps one probe loop per degraded episode.
	degraded       atomic.Bool
	degradedReason atomic.Value // string
	recGate        atomic.Bool
	recStop        chan struct{}
	recGroup       sync.WaitGroup

	// Checkpoint bookkeeping for DurabilityStats, maintained with or
	// without a registry attached: completed checkpoints since Open, the
	// duration of the latest one, and the update pause (the cut window) of
	// the latest one, both in nanoseconds.
	ckptCount   atomic.Int64
	ckptLastNS  atomic.Int64
	ckptPauseNS atomic.Int64

	// logger is Options.Logger or a discard handler; never nil after Open.
	logger *slog.Logger

	// Recovery provenance, written once by Open and immutable afterwards
	// (see RecoveryInfo): what the live index was built from.
	restoreSeq          uint64  // snapshot restored from; 0 when bootstrapped
	restoreReplayed     int64   // WAL records replayed on top of it
	restoreBootstrapped bool    // true when Open built fresh state
	restoreSeconds      float64 // wall time of the restore/bootstrap

	// Telemetry, nil until Instrument attaches a registry (see
	// telemetry.go). walMetrics is re-attached to each rotated log.
	walMetrics    *wal.Metrics
	mUpdates      *telemetry.Counter
	mCkpts        *telemetry.Counter
	mCkptFailures *telemetry.Counter
	mCkptDur      *telemetry.Histogram
	mCkptPause    *telemetry.Histogram
	mRetries      *telemetry.Counter
}

// ErrClosed is returned by update operations on a closed store.
var ErrClosed = errors.New("durable: store is closed")

const currentName = "CURRENT"

func snapDirName(seq uint64) string { return fmt.Sprintf("snap-%07d", seq) }
func walName(seq uint64) string     { return fmt.Sprintf("wal-%07d.log", seq) }

// Open restores (or bootstraps) a durable store in dir, creating the
// directory if needed. When a snapshot exists, the index is restored from
// it and the matching WAL is replayed; otherwise Options.Bootstrap supplies
// the initial data and an initial checkpoint is written before Open
// returns, so a crash immediately after Open loses nothing.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{dir: dir, opts: opts}
	s.fs = opts.FS
	if s.fs == nil {
		s.fs = faultfs.OS{}
	}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s.degradedReason.Store("")
	s.recStop = make(chan struct{})
	s.genStart = make(map[uint64]uint64)
	s.genPins = make(map[uint64]int)
	s.notifyCh = make(chan struct{})
	s.logger = opts.Logger
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}

	start := time.Now()
	seq, ok, err := readCurrent(s.fs, dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		// The bootstrap dataset lives in snapshot 1, not the WAL, so it
		// consumes no sequence numbers: the first logged record is seq 1.
		s.nextSeq.Store(1)
		if err := s.bootstrap(); err != nil {
			return nil, err
		}
		s.restoreBootstrapped = true
		s.restoreSeconds = time.Since(start).Seconds()
		s.logger.Info("durable store bootstrapped",
			"dir", dir, "snapshot_seq", s.seq,
			"objects", s.ix.ApproxLen(),
			"fsync", s.fsyncName(),
			"elapsed_ms", time.Since(start).Milliseconds())
	} else {
		s.seq = seq
		s.ix, err = shard.Restore(filepath.Join(dir, snapDirName(seq)), opts.Shard)
		if err != nil {
			return nil, fmt.Errorf("restoring snapshot %d: %w", seq, err)
		}
		if err := s.scanGenerations(); err != nil {
			return nil, fmt.Errorf("scanning generations: %w", err)
		}
		startSeq := s.genStart[seq]
		if startSeq == 0 {
			// CURRENT names a generation the scan rejected — nothing to
			// serve replication from, but the store itself is intact.
			startSeq = 1
			s.genStart[seq] = 1
		}
		// Replay the WAL chain in order: the CURRENT generation's log, then
		// any successor WALs a crash (or failure) mid-checkpoint left past
		// it — records accepted after that checkpoint's cut; numbering is
		// positional, so each log continues where the previous one stopped.
		// One pass per log replays, truncates the torn tail and keeps the
		// (last) handle open for appending.
		next := startSeq
		for g := seq; ; g++ {
			path := filepath.Join(dir, walName(g))
			if g > seq {
				if _, statErr := os.Stat(path); statErr != nil {
					break
				}
				s.registerGen(g, next)
				s.log.Close()
			}
			var n int
			s.log, n, err = wal.OpenReplayFS(s.fs, path, s.walPolicy(), s.applyRecord)
			if err != nil {
				return nil, fmt.Errorf("replaying wal %d: %w", g, err)
			}
			next += uint64(n)
			s.walSeq = g
		}
		replayed, chain := int(next-startSeq), int(s.walSeq-seq)
		s.nextSeq.Store(next)
		s.restoreSeq = seq
		s.restoreReplayed = int64(replayed)
		s.logger.Info("durable store restored",
			"dir", dir, "snapshot_seq", seq,
			"wal_chain", chain+1,
			"wal_records_replayed", replayed,
			"wal_truncated_bytes", s.log.TruncatedBytes(),
			"objects", s.ix.ApproxLen(),
			"fsync", s.fsyncName(),
			"elapsed_ms", time.Since(start).Milliseconds())
		if t := s.log.TruncatedBytes(); t > 0 {
			// A torn tail is the footprint of a crash mid-append — benign
			// (the record was never acknowledged under FsyncAlways) but
			// worth its own line at warn.
			s.logger.Warn("wal tail truncated", "bytes", t, "wal_seq", s.walSeq)
		}
		if chain > 0 {
			// Roll the chain forward into a fresh generation so the store
			// leaves Open with the steady-state invariant (one live WAL,
			// CURRENT naming its snapshot) restored. The rolled-forward
			// snapshot contains every replayed record, so the superseded
			// chain retires at the next GC.
			if _, err := s.checkpointPinned(); err != nil {
				s.log.Close()
				return nil, fmt.Errorf("rolling forward wal chain: %w", err)
			}
			s.logger.Info("rolled forward interrupted checkpoint",
				"snapshot_seq", s.seq, "chain_replayed", chain)
		}
		s.restoreSeconds = time.Since(start).Seconds()
	}
	// DurabilityStats reports checkpoints since Open: the rotations Open
	// itself ran (bootstrap, roll-forward) are recovery, not checkpoints.
	s.ckptCount.Store(0)
	s.ckptLastNS.Store(0)
	s.ckptPauseNS.Store(0)

	if s.walPolicy() == wal.SyncInterval {
		every := opts.FsyncEvery
		if every <= 0 {
			every = 100 * time.Millisecond
		}
		s.syncStop = make(chan struct{})
		s.syncGroup.Add(1)
		go s.syncLoop(every)
	}
	return s, nil
}

// fsyncName is the configured fsync policy as a log-friendly string.
func (s *Store) fsyncName() string {
	if s.opts.Fsync == "" {
		return string(FsyncAlways)
	}
	return string(s.opts.Fsync)
}

func (s *Store) walPolicy() wal.SyncPolicy {
	switch s.opts.Fsync {
	case FsyncInterval:
		return wal.SyncInterval
	case FsyncNever:
		return wal.SyncNever
	default:
		return wal.SyncAlways
	}
}

// applyRecord replays one WAL record into the index.
func (s *Store) applyRecord(r *wal.Record) error {
	_, err := s.apply(r)
	return err
}

// apply is the one opcode dispatch into the index, shared by WAL replay,
// the live update path and replicated records.
func (s *Store) apply(r *wal.Record) (found bool, err error) {
	switch r.Op {
	case wal.OpInsert:
		return false, s.ix.Insert(r.Objects...)
	case wal.OpDelete:
		return s.ix.Delete(r.ID, r.Hint)
	}
	return false, fmt.Errorf("unknown wal opcode %d", r.Op)
}

// bootstrap builds the index from Options.Bootstrap and checkpoints it as
// generation 1 through the same rotation the runtime uses.
func (s *Store) bootstrap() error {
	var data []geom.Object
	if s.opts.Bootstrap != nil {
		data = s.opts.Bootstrap()
	}
	s.ix = shard.New(data, s.opts.Shard)
	_, err := s.checkpointPinned()
	if err != nil && s.log != nil {
		s.log.Close()
	}
	return err
}

// Index returns the underlying sharded index. Queries (Query, QueryBatch,
// KNN, Stats, ...) go directly through it; updates that must survive a
// restart go through the store's Insert/Delete instead.
func (s *Store) Index() *shard.Index { return s.ix }

// Seq returns the sequence number of the live snapshot.
func (s *Store) Seq() uint64 {
	s.updMu.RLock()
	defer s.updMu.RUnlock()
	return s.seq
}

// WALSize returns the current write-ahead log length in bytes.
func (s *Store) WALSize() int64 {
	s.updMu.RLock()
	defer s.updMu.RUnlock()
	return s.log.Size()
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// RecoveryInfo reports what Open built the live index from: the snapshot
// sequence restored (0 when none existed), the WAL records replayed on top,
// whether the store bootstrapped fresh state, and the restore wall time in
// seconds, as the serving layer reports it on /readyz. The values are fixed
// at Open, so reads are lock-free.
func (s *Store) RecoveryInfo() (snapshotSeq uint64, walRecordsReplayed int64, bootstrapped bool, restoreSeconds float64) {
	return s.restoreSeq, s.restoreReplayed, s.restoreBootstrapped, s.restoreSeconds
}

// Insert durably inserts objs: the operation is appended to the WAL (and
// fsynced, per policy) before it is applied or acknowledged. While the
// store is degraded it fails fast with ioerr.ErrDegraded; a fresh append
// failure that survives the bounded retries enters degraded mode (the
// operation is not applied — the index holds exactly the acknowledged
// writes).
func (s *Store) Insert(objs ...geom.Object) error {
	_, err := s.update(&wal.Record{Op: wal.OpInsert, Objects: objs})
	return err
}

// Delete durably deletes the object with the given ID (see shard.Delete for
// the hint semantics), logging before applying. Degraded-mode and retry
// semantics match Insert.
func (s *Store) Delete(id int32, hint geom.Box) (bool, error) {
	return s.update(&wal.Record{Op: wal.OpDelete, ID: id, Hint: hint})
}

// Apply durably applies one decoded record — what a replication follower
// does with each record the leader ships. Semantics match Insert/Delete.
func (s *Store) Apply(r *wal.Record) error {
	_, err := s.update(r)
	return err
}

// update is the one log-then-apply body behind Insert, Delete and Apply.
func (s *Store) update(r *wal.Record) (found bool, err error) {
	if s.closed.Load() {
		return false, ErrClosed
	}
	if s.degraded.Load() {
		return false, ioerr.ErrDegraded
	}
	if r.Op != wal.OpInsert && r.Op != wal.OpDelete {
		return false, fmt.Errorf("durable: unknown wal opcode %d", r.Op)
	}
	s.updMu.RLock()
	s.opMu.Lock()
	err = s.appendRetry(r)
	logged := err == nil
	if logged {
		// The record is durable: it owns the next global sequence number
		// whether or not the in-memory apply below succeeds (replay and
		// replication both serve from the log, not the index).
		s.nextSeq.Add(1)
		found, err = s.apply(r)
	}
	s.opMu.Unlock()
	s.updMu.RUnlock()
	if logged {
		s.broadcastUpdate()
	}
	if err == nil {
		s.noteUpdate()
		return found, nil
	}
	if !logged {
		return false, s.degradeOn(err)
	}
	return found, err
}

// logRecord appends r to the live WAL. The caller has checked the opcode.
func (s *Store) logRecord(r *wal.Record) error {
	if r.Op == wal.OpInsert {
		return s.log.AppendInsert(r.Objects)
	}
	return s.log.AppendDelete(r.ID, r.Hint)
}

// appendRetry runs one WAL append, retrying transiently-classified
// failures (ENOSPC, EAGAIN, EINTR — the append self-repaired, the file is
// still trustworthy) with exponential backoff, at most Options.
// AppendRetries times. Fatal failures (EIO, a failed fsync, a broken log)
// return immediately: retrying against a file in unknown state is how
// acknowledged writes get lost. Called with opMu held, so the backoff
// sleeps stall only other writers, never reads.
func (s *Store) appendRetry(r *wal.Record) error {
	err := s.logRecord(r)
	if err == nil {
		return nil
	}
	retries := s.opts.AppendRetries
	if retries == 0 {
		retries = 3
	}
	backoff := 5 * time.Millisecond
	for i := 0; i < retries; i++ {
		if ioerr.Classify(err) != ioerr.Transient || s.log.Broken() != nil {
			return err
		}
		time.Sleep(backoff)
		backoff *= 2
		s.mRetries.Inc()
		s.logger.Warn("retrying wal append after transient failure",
			"attempt", i+1, "err", err)
		if err = s.logRecord(r); err == nil {
			return nil
		}
	}
	return err
}

// degradeOn flips the store into degraded read-only mode because of cause
// (a WAL append failure that exhausted its retries, or a fatal I/O error)
// and starts the background recovery probe. It returns the error update
// callers should surface: ioerr.ErrDegraded wrapping the cause, so the
// HTTP layer answers 503 + Retry-After for the triggering write exactly as
// it will for every write until recovery.
func (s *Store) degradeOn(cause error) error {
	if s.degraded.CompareAndSwap(false, true) {
		s.degradedReason.Store(cause.Error())
		s.logger.Error("entering degraded read-only mode",
			"cause", cause, "class", ioerr.Classify(cause).String())
		s.startRecovery()
	}
	return fmt.Errorf("%w (cause: %w)", ioerr.ErrDegraded, cause)
}

// Degraded reports whether the store is in degraded read-only mode, and
// the failure that put it there.
func (s *Store) Degraded() (bool, string) {
	if !s.degraded.Load() {
		return false, ""
	}
	reason, _ := s.degradedReason.Load().(string)
	return true, reason
}

// startRecovery launches the degraded-mode probe loop (one per episode).
func (s *Store) startRecovery() {
	if !s.recGate.CompareAndSwap(false, true) {
		return
	}
	every := s.opts.RecoverEvery
	if every <= 0 {
		every = 5 * time.Second
	}
	s.recGroup.Add(1)
	go func() {
		defer s.recGroup.Done()
		defer s.recGate.Store(false)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.recStop:
				return
			case <-t.C:
			}
			if s.closed.Load() {
				return
			}
			// A full checkpoint to a fresh generation is the recovery
			// probe: it exercises every write site (snapshot files, a new
			// WAL, the CURRENT rename, directory fsyncs) on fresh files,
			// so its success proves the disk writable again — and leaves
			// the store on a clean generation with an empty, trustworthy
			// log. checkpointLocked clears the degraded flag on success.
			if _, err := s.Checkpoint(); err != nil {
				if errors.Is(err, ErrClosed) {
					return
				}
				s.logger.Warn("degraded-mode recovery probe failed", "err", err)
				continue
			}
			return
		}
	}()
}

// noteUpdate counts one accepted update and triggers the automatic
// checkpoint once the threshold is crossed. The checkpoint runs detached —
// the unlucky update that crossed the line should not pay for writing every
// shard — and the gate keeps at most one in flight.
func (s *Store) noteUpdate() {
	s.mUpdates.Inc()
	n := s.updates.Add(1)
	if s.opts.CheckpointEvery <= 0 || n < int64(s.opts.CheckpointEvery) {
		return
	}
	if s.ckptGate.CompareAndSwap(false, true) {
		go func() {
			defer s.ckptGate.Store(false)
			if _, err := s.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) {
				// Detached from any update call, so the log is the only
				// place this failure can surface (the failure counter moves
				// too, inside checkpointLocked).
				s.logger.Error("automatic checkpoint failed", "err", err)
			}
		}()
	}
}

// Checkpoint writes a new snapshot and retires the current WAL, returning
// the new snapshot sequence. Updates are NOT paused for the snapshot: the
// checkpoint pins every shard's MVCC version during a microsecond cut (the
// only instants updates wait) and serializes the pinned views while new
// writes keep landing in the successor WAL. Queries are never blocked;
// concurrent checkpoints are serialized. A checkpoint that fails while the
// store is degraded returns ioerr.ErrDegraded wrapping the cause, as writes
// do: the disk is known sick and the recovery probe will retry.
func (s *Store) Checkpoint() (uint64, error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	seq, err := s.checkpointPinned()
	if err != nil && s.degraded.Load() {
		return 0, fmt.Errorf("%w (cause: %w)", ioerr.ErrDegraded, err)
	}
	return seq, err
}

// checkpointPinned is the zero-pause rotation (phases per the package doc:
// prepare → cut → publish → retire). Caller holds ckptMu or is Open (single-
// threaded; at bootstrap there is no predecessor log); updMu is taken
// exclusively only for the cut and the final generation swap.
func (s *Store) checkpointPinned() (uint64, error) {
	start := time.Now()
	newSeq := s.walSeq + 1
	tmp := filepath.Join(s.dir, snapDirName(newSeq)+".tmp")

	// Phase 1 — prepare, updates flowing: the successor WAL and the
	// snapshot staging directory. A failure here leaves the store entirely
	// on its old generation.
	fail := func(err error) (uint64, error) {
		s.mCkptFailures.Inc()
		return 0, err
	}
	if err := s.fs.RemoveAll(tmp); err != nil {
		return fail(err)
	}
	if err := s.fs.MkdirAll(tmp, 0o755); err != nil {
		return fail(err)
	}
	newLog, err := wal.CreateFS(s.fs, filepath.Join(s.dir, walName(newSeq)), s.walPolicy())
	if err != nil {
		s.fs.RemoveAll(tmp)
		return fail(err)
	}
	if s.walMetrics != nil {
		newLog.SetMetrics(s.walMetrics)
	}

	// Phase 2 — the cut. Everything acknowledged before it is in the
	// pinned versions and the retiring WAL; everything after goes to the
	// successor WAL. This exclusive section is the whole update pause:
	// one log-pointer swap plus one version pin per shard.
	cutStart := time.Now()
	s.updMu.Lock()
	pins, err := s.ix.PinVersions()
	if err != nil {
		// Nothing swapped yet: roll the prepared files back and keep
		// running on the old generation.
		s.updMu.Unlock()
		newLog.Close()
		s.fs.Remove(filepath.Join(s.dir, walName(newSeq)))
		s.fs.RemoveAll(tmp)
		return fail(err)
	}
	cutSeq := s.nextSeq.Load()
	oldLog := s.log
	s.log = newLog
	s.walSeq = newSeq
	s.registerGen(newSeq, cutSeq)
	s.updMu.Unlock()
	pause := time.Since(cutStart)
	s.ckptPauseNS.Store(int64(pause))
	s.mCkptPause.ObserveDuration(pause)
	defer pins.Release()

	// Phase 3 — publish, updates flowing: serialize the pinned versions,
	// fsync, rename into place, point CURRENT at the new generation. A
	// failure from here on leaves the store mid-chain but correct: records
	// keep landing in the successor WAL, CURRENT still names the old
	// generation, and recovery (or the next checkpoint) replays the chain.
	if err := s.ix.SnapshotPinnedFS(tmp, s.fs, pins); err != nil {
		s.fs.RemoveAll(tmp)
		return fail(err)
	}
	if err := writeReplMeta(s.fs, tmp, cutSeq); err != nil {
		s.fs.RemoveAll(tmp)
		return fail(err)
	}
	if err := InstallCurrent(s.fs, s.dir, tmp, newSeq); err != nil {
		return fail(err)
	}

	// Phase 4 — retire: advance the in-memory generation, release the old
	// log, garbage-collect generations beyond the retention window
	// (keeping at least the previous one so a bootstrapping follower can
	// finish streaming it; GC failures are cosmetic dead weight).
	s.updMu.Lock()
	s.seq = newSeq
	s.gcGenerations()
	s.updMu.Unlock()
	if oldLog != nil {
		oldLog.Close()
	}
	s.updates.Store(0)
	elapsed := time.Since(start)
	s.ckptCount.Add(1)
	s.ckptLastNS.Store(int64(elapsed))
	s.mCkpts.Inc()
	s.mCkptDur.ObserveDuration(elapsed)
	if s.degraded.Swap(false) {
		// The rotation just proved every write site good on fresh files:
		// the store is durable again, writes may flow.
		s.degradedReason.Store("")
		s.logger.Info("degraded mode cleared by successful checkpoint",
			"snapshot_seq", newSeq)
	}
	s.logger.Info("checkpoint complete",
		"snapshot_seq", newSeq, "objects", s.ix.ApproxLen(),
		"elapsed_ms", elapsed.Milliseconds(),
		"update_pause_us", pause.Microseconds())
	return newSeq, nil
}

// Close checkpoints (so restart needs no WAL replay) and releases the WAL.
// The store must not be used afterwards.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return ErrClosed
	}
	if s.syncStop != nil {
		close(s.syncStop)
		s.syncGroup.Wait()
	}
	// Stop the degraded-mode probe before taking ckptMu: the probe may be
	// mid-Checkpoint holding it, and waiting while holding it would
	// deadlock.
	close(s.recStop)
	s.recGroup.Wait()
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	seq, err := s.checkpointPinned()
	if err != nil {
		s.logger.Error("final checkpoint on close failed", "err", err)
		s.log.Close()
		return err
	}
	s.logger.Info("durable store closed", "snapshot_seq", seq)
	return s.log.Close()
}

// syncLoop is the FsyncInterval cadence.
func (s *Store) syncLoop(every time.Duration) {
	defer s.syncGroup.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.syncStop:
			return
		case <-t.C:
			s.updMu.RLock()
			log := s.log
			s.updMu.RUnlock()
			if log != nil {
				log.Sync()
			}
		}
	}
}

// readCurrent parses CURRENT; ok == false means no snapshot exists yet.
func readCurrent(fsys faultfs.FS, dir string) (uint64, bool, error) {
	raw, err := fsys.ReadFile(filepath.Join(dir, currentName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	seq, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("parsing %s: %w", currentName, err)
	}
	return seq, true, nil
}
