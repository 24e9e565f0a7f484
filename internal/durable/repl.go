package durable

// Replication surface: everything a WAL-shipping leader needs from the
// store, and the directory-layout helpers a bootstrapping follower needs.
//
// Every record the store ever accepted has an implicit global sequence
// number: record i (0-based) of generation G has sequence startSeq(G) + i,
// where startSeq(G) — persisted as REPLMETA.json inside the generation's
// snapshot directory — is the number of records accepted before the
// generation was cut. The WAL frame format carries no sequence field;
// numbering follows purely from position, so the on-disk format is
// unchanged and pre-replication directories read as startSeq 1. NextSeq is
// the sequence the next accepted record will get; a follower that has
// applied records up to (but excluding) sequence S resumes by asking the
// leader for S.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/faultfs"
)

var (
	// ErrSeqTruncated reports that the requested sequence predates the
	// oldest retained generation: its records were garbage-collected and
	// can never be served again. A follower recovers by re-bootstrapping
	// from the current snapshot.
	ErrSeqTruncated = errors.New("durable: sequence predates retained history")
	// ErrSeqAhead reports a requested sequence beyond the live log — the
	// follower believes it has applied records this store never accepted
	// (a diverged or wiped leader). The follower must re-bootstrap.
	ErrSeqAhead = errors.New("durable: sequence is beyond the live log")
)

// replMetaName is the per-generation metadata file inside a snapshot
// directory. It rides along when the directory is archived to a follower.
const replMetaName = "REPLMETA.json"

type replMeta struct {
	Version  int    `json:"version"`
	StartSeq uint64 `json:"start_seq"`
}

// writeReplMeta records startSeq in dir (fsynced; the enclosing snapshot
// rename publishes it atomically with the rest of the generation).
func writeReplMeta(fsys faultfs.FS, dir string, startSeq uint64) error {
	raw, err := json.Marshal(replMeta{Version: 1, StartSeq: startSeq})
	if err != nil {
		return err
	}
	return faultfs.WriteFileSync(fsys, filepath.Join(dir, replMetaName), append(raw, '\n'), false)
}

// readReplMeta returns the generation's start sequence. A missing file is a
// pre-replication generation and reads as 1.
func readReplMeta(fsys faultfs.FS, dir string) (uint64, error) {
	raw, err := fsys.ReadFile(filepath.Join(dir, replMetaName))
	if errors.Is(err, os.ErrNotExist) {
		return 1, nil
	}
	if err != nil {
		return 0, err
	}
	var m replMeta
	if err := json.Unmarshal(raw, &m); err != nil {
		return 0, fmt.Errorf("parsing %s: %w", replMetaName, err)
	}
	if m.StartSeq == 0 {
		return 1, nil
	}
	return m.StartSeq, nil
}

// NextSeq returns the global sequence number the next accepted record will
// carry (1-based; NextSeq-1 records have been accepted so far).
func (s *Store) NextSeq() uint64 { return s.nextSeq.Load() }

// UpdateNotify returns a channel closed when the next record is accepted.
// Callers waiting for log growth re-arm by calling it again after each
// wake-up — the long-poll primitive behind /repl/wal tail-following.
func (s *Store) UpdateNotify() <-chan struct{} {
	s.notifyMu.Lock()
	ch := s.notifyCh
	s.notifyMu.Unlock()
	return ch
}

// broadcastUpdate wakes every UpdateNotify waiter.
func (s *Store) broadcastUpdate() {
	s.notifyMu.Lock()
	close(s.notifyCh)
	s.notifyCh = make(chan struct{})
	s.notifyMu.Unlock()
}

// retain returns the effective generation-retention count (minimum 2: a
// bootstrapping follower must be able to stream a stable generation while
// a checkpoint lands).
func (s *Store) retain() uint64 {
	k := s.opts.RetainGenerations
	if k < 2 {
		k = 2
	}
	return uint64(k)
}

// registerGen records a generation's start sequence. Called at a
// checkpoint's cut, when the generation's WAL goes live.
func (s *Store) registerGen(gen, startSeq uint64) {
	s.genMu.Lock()
	s.genStart[gen] = startSeq
	s.genMu.Unlock()
}

// gcGenerations deletes generations older than the retention window,
// skipping any a replication stream has pinned. Caller holds updMu
// exclusively; failures are cosmetic (dead weight on disk) and are retried
// implicitly at the next checkpoint.
func (s *Store) gcGenerations() {
	keep := s.retain()
	s.genMu.Lock()
	defer s.genMu.Unlock()
	for gen := range s.genStart {
		if gen+keep > s.seq || s.genPins[gen] > 0 {
			continue
		}
		s.fs.RemoveAll(filepath.Join(s.dir, snapDirName(gen)))
		s.fs.Remove(filepath.Join(s.dir, walName(gen)))
		delete(s.genStart, gen)
		s.logger.Info("garbage-collected old generation", "snapshot_seq", gen)
	}
}

// scanGenerations rebuilds the generation table from the directory at Open:
// every retained snap-* directory (at or below the live generation) is
// registered with its persisted start sequence.
func (s *Store) scanGenerations() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, "snap-") || strings.HasSuffix(name, ".tmp") {
			continue
		}
		var gen uint64
		if _, err := fmt.Sscanf(name, "snap-%d", &gen); err != nil || gen == 0 || gen > s.seq {
			continue
		}
		start, err := readReplMeta(s.fs, filepath.Join(s.dir, name))
		if err != nil {
			s.logger.Warn("skipping generation with unreadable replication metadata",
				"snapshot_seq", gen, "err", err)
			continue
		}
		s.genStart[gen] = start
	}
	return nil
}

// pinGen increments a generation's pin count, blocking its GC, and returns
// the matching release. Caller holds updMu (either side).
func (s *Store) pinGen(gen uint64) func() {
	s.genMu.Lock()
	s.genPins[gen]++
	s.genMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.genMu.Lock()
			if s.genPins[gen]--; s.genPins[gen] <= 0 {
				delete(s.genPins, gen)
			}
			s.genMu.Unlock()
		})
	}
}

// AcquireSnapshot pins the live generation against garbage collection and
// returns its identity: generation number, start sequence, and directory
// path. The caller streams the directory, then calls release — until then
// no checkpoint will delete it (checkpoints still land; only this
// generation's GC is deferred).
func (s *Store) AcquireSnapshot() (gen, startSeq uint64, dir string, release func(), err error) {
	s.updMu.RLock()
	defer s.updMu.RUnlock()
	gen = s.seq
	s.genMu.Lock()
	startSeq, ok := s.genStart[gen]
	s.genMu.Unlock()
	if !ok {
		return 0, 0, "", nil, fmt.Errorf("durable: live generation %d not in generation table", gen)
	}
	return gen, startSeq, filepath.Join(s.dir, snapDirName(gen)), s.pinGen(gen), nil
}

// AcquireWAL locates the generation whose WAL holds the record with global
// sequence seq, pins it, and returns the generation, its start sequence,
// and the WAL file path (the record is frame number seq-startSeq within
// it). seq == NextSeq() is valid and names the empty tail of the live log.
// ErrSeqTruncated means the history was garbage-collected; ErrSeqAhead
// means seq has never been assigned.
func (s *Store) AcquireWAL(seq uint64) (gen, startSeq uint64, path string, release func(), err error) {
	s.updMu.RLock()
	defer s.updMu.RUnlock()
	if seq > s.nextSeq.Load() {
		return 0, 0, "", nil, ErrSeqAhead
	}
	s.genMu.Lock()
	found := false
	for g, st := range s.genStart {
		if st <= seq && (!found || g > gen) {
			gen, startSeq, found = g, st, true
		}
	}
	s.genMu.Unlock()
	if !found {
		return 0, 0, "", nil, ErrSeqTruncated
	}
	return gen, startSeq, filepath.Join(s.dir, walName(gen)), s.pinGen(gen), nil
}

// Directory-layout helpers for follower bootstrap: a follower fetches a
// leader generation into a staging directory, publishes it with
// InstallCurrent, and hands the directory to Open.

// SnapshotDir returns the snapshot directory path for generation gen.
func SnapshotDir(dir string, gen uint64) string {
	return filepath.Join(dir, snapDirName(gen))
}

// WALPath returns the WAL file path for generation gen.
func WALPath(dir string, gen uint64) string {
	return filepath.Join(dir, walName(gen))
}

// HasState reports whether dir holds an installed generation (a readable
// CURRENT file).
func HasState(fsys faultfs.FS, dir string) (bool, error) {
	_, ok, err := readCurrent(fsys, dir)
	return ok, err
}

// InstallCurrent publishes the complete, synced snapshot directory staged
// as generation gen of dir — the one publish sequence behind checkpoints and
// follower bootstrap: rename into place, fsync the parent, then atomically
// point CURRENT at it. A crash before that leaves CURRENT on its old target.
func InstallCurrent(fsys faultfs.FS, dir, staged string, gen uint64) error {
	final := filepath.Join(dir, snapDirName(gen))
	if err := fsys.RemoveAll(final); err != nil {
		return err
	}
	if err := fsys.Rename(staged, final); err != nil {
		return err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return err
	}
	return faultfs.WriteFileSync(fsys, filepath.Join(dir, currentName), []byte(strconv.FormatUint(gen, 10)+"\n"), true)
}
