// Package wal implements the write-ahead log behind the durable serving
// stack (internal/durable): live updates are appended — and, depending on
// the sync policy, fsynced — before they are acknowledged, so a crash loses
// no acknowledged write. Recovery replays the log on top of the latest
// snapshot; a checkpoint truncates it by starting a fresh log.
//
// The format is a flat sequence of records, each framed as
//
//	uint32 payload length | uint32 CRC-32C of payload | payload
//
// (little-endian). The payload starts with a one-byte opcode (insert or
// delete) followed by the operation's fields. Replay stops cleanly at the
// first torn or corrupt frame — the tail a crash mid-append leaves behind —
// and reports the byte offset of the last intact record so the caller can
// truncate before appending again.
//
// readFrame is the only parser of a frame (header, length bound, CRC) and
// replay the only loop over a log's intact prefix: Replay, OpenReplayFS and
// CreateFS (OpenReplayFS that validates without decoding) run it, and the
// replication Reader and StreamDecoder read through the same readFrame, so
// recovery, leader and follower cannot disagree about where a log ends.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/faultfs"
	"repro/internal/geom"
	"repro/internal/telemetry"
)

// ErrBroken marks a log whose file can no longer be trusted: a failed
// fsync (the kernel may have dropped the very pages that failed to reach
// disk), or a failed append whose partial frame could not be cut back.
// Every later operation fails with it; recovery means retiring the file
// via a checkpoint rotation, not retrying against it.
var ErrBroken = errors.New("wal: log broken by prior I/O failure")

// SyncPolicy controls when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append, before the append returns: no
	// acknowledged write is ever lost, at the cost of one fsync per update.
	SyncAlways SyncPolicy = iota
	// SyncInterval leaves fsync to a caller-driven cadence (the durable
	// store runs a ticker calling Sync): a crash can lose at most the last
	// interval's acknowledged writes. Appends still reach the OS buffer
	// cache before returning, so only a machine crash — not a process
	// crash — can lose them.
	SyncInterval
	// SyncNever never fsyncs explicitly; the OS flushes on its own
	// schedule. For bulk loads and tests.
	SyncNever
)

// Op is a record opcode.
type Op byte

const (
	// OpInsert carries a batch of objects to insert.
	OpInsert Op = 1
	// OpDelete carries one ID plus its locator hint box.
	OpDelete Op = 2
)

// Record is one decoded log entry.
type Record struct {
	Op      Op
	Objects []geom.Object // OpInsert
	ID      int32         // OpDelete
	Hint    geom.Box      // OpDelete
}

// maxPayload bounds a record payload (1 GiB): a longer length prefix is
// corrupt. readChunk bounds how far readFrame grows its buffer ahead of the
// bytes that have arrived, so no length prefix forces an enormous allocation.
const (
	maxPayload = 1 << 30
	readChunk  = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Metrics is the instrumentation a Log reports into. Any field may be nil
// (telemetry metrics no-op on nil receivers), as may the whole struct. The
// durable store owns one Metrics value and re-attaches it to each successor
// log a checkpoint rotation creates, so the series survive rotation.
type Metrics struct {
	// Appends counts committed records; AppendedBytes their framed bytes.
	Appends       *telemetry.Counter
	AppendedBytes *telemetry.Counter
	// AppendSeconds is the full commit latency: frame write plus, under
	// SyncAlways, the fsync — the latency an acknowledged update paid.
	AppendSeconds *telemetry.Histogram
	// Fsyncs counts explicit fsyncs; FsyncSeconds their latency, whichever
	// policy (per-append or interval cadence) issued them.
	Fsyncs       *telemetry.Counter
	FsyncSeconds *telemetry.Histogram
}

// Log is an append-only write-ahead log. Append-side methods are safe for
// concurrent use.
type Log struct {
	mu      sync.Mutex
	f       faultfs.File
	policy  SyncPolicy
	buf     []byte // frame scratch, reused across appends
	size    int64
	metrics *Metrics // nil when uninstrumented
	// truncated records how many torn-tail bytes open-time recovery cut
	// from the file — fixed at Create/OpenReplay so callers can log it.
	truncated int64
	// broken is non-nil once the file is untrustworthy (failed fsync, or a
	// failed append whose partial frame could not be cut back). It wraps
	// ErrBroken; every later append or sync returns it.
	broken error
}

// TruncatedBytes reports how many bytes of torn or corrupt tail were cut
// when the log was opened (0 for a clean file). A non-zero value is the
// footprint of a crash mid-append: expected after unclean shutdown, worth
// surfacing in logs either way.
func (l *Log) TruncatedBytes() int64 { return l.truncated }

// SetMetrics attaches (or detaches, with nil) instrumentation.
func (l *Log) SetMetrics(m *Metrics) {
	l.mu.Lock()
	l.metrics = m
	l.mu.Unlock()
}

// CreateFS opens path on fsys for appending, creating it if absent. If the
// file has a torn tail (from a crash mid-append), it is truncated to the
// last intact record first — call Replay before CreateFS to apply the
// surviving records.
func CreateFS(fsys faultfs.FS, path string, policy SyncPolicy) (*Log, error) {
	l, _, err := OpenReplayFS(fsys, path, policy, nil)
	return l, err
}

// OpenReplayFS opens the log at path on fsys for appending after replaying
// it: every intact record is passed to apply in order, a torn or corrupt
// tail is truncated, and the returned Log appends after the last intact
// record — recovery and reopen in a single pass over the file. A missing
// file is created empty (apply is never called). A nil apply validates the
// frames without decoding them. It returns the number of records replayed
// alongside the log.
func OpenReplayFS(fsys faultfs.FS, path string, policy SyncPolicy, apply func(*Record) error) (*Log, int, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	n, off, err := replay(f, apply)
	var torn int64
	if err == nil {
		torn, err = tornTail(f, off)
	}
	if err == nil {
		err = f.Truncate(off)
	}
	if err == nil {
		_, err = f.Seek(off, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, n, err
	}
	return &Log{f: f, policy: policy, size: off, truncated: torn}, n, nil
}

// tornTail measures how far the file extends past the last intact record.
func tornTail(f faultfs.File, good int64) (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if t := fi.Size() - good; t > 0 {
		return t, nil
	}
	return 0, nil
}

// Replay reads every intact record of the log at path in order, invoking
// apply on each. A missing file is an empty log. A torn or corrupt tail
// ends replay cleanly; the error return is reserved for I/O failures and
// apply errors.
func Replay(path string, apply func(*Record) error) (int, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, _, err := replay(f, apply)
	return n, err
}

// replay hands each record of the intact prefix to apply (nil: frames are
// validated, not decoded) until the first torn, corrupt or undecodable one,
// and returns the record count and the byte offset just past the last.
func replay(r io.Reader, apply func(*Record) error) (n int, off int64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var buf []byte
	var rec Record
	for {
		frame, ok, err := readFrame(br, buf)
		if err != nil || !ok {
			return n, off, err
		}
		buf = frame
		if apply != nil {
			if !decodePayload(frame[8:], &rec) {
				return n, off, nil
			}
			if err := apply(&rec); err != nil {
				return n, off, fmt.Errorf("applying wal record %d: %w", n, err)
			}
		}
		off += int64(len(frame))
		n++
	}
}

// AppendInsert logs an insert of objs and returns once the record is
// durable to the configured policy.
func (l *Log) AppendInsert(objs []geom.Object) error {
	need := 1 + 4 + len(objs)*(4+6*8)
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.payloadBuf(need)
	p = append(p, byte(OpInsert))
	p = binary.LittleEndian.AppendUint32(p, uint32(len(objs)))
	for i := range objs {
		p = binary.LittleEndian.AppendUint32(p, uint32(objs[i].ID))
		p = appendBox(p, objs[i].Box)
	}
	return l.commit(p)
}

// AppendDelete logs a delete and returns once the record is durable to the
// configured policy.
func (l *Log) AppendDelete(id int32, hint geom.Box) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.payloadBuf(1 + 4 + 6*8)
	p = append(p, byte(OpDelete))
	p = binary.LittleEndian.AppendUint32(p, uint32(id))
	p = appendBox(p, hint)
	return l.commit(p)
}

// payloadBuf returns the scratch buffer with 8 framing bytes reserved.
func (l *Log) payloadBuf(need int) []byte {
	if cap(l.buf) < 8+need {
		l.buf = make([]byte, 0, 8+need)
	}
	return l.buf[:8]
}

// commit frames the payload (which sits at l.buf[8:]), writes it in one
// Write call, and syncs per policy. Called with mu held.
//
// A failed write self-repairs: whatever prefix of the frame reached the
// file is cut back so the log still ends on its last intact record and a
// retried append starts clean. If the cut itself fails the log is marked
// broken — the file's tail is unknown and nothing may append after it. A
// failed fsync marks the log broken unconditionally (fsync-gate semantics:
// the kernel may have dropped the dirty pages that failed, so a later
// "successful" fsync proves nothing about these bytes).
func (l *Log) commit(p []byte) error {
	if l.broken != nil {
		return l.broken
	}
	payload := p[8:]
	binary.LittleEndian.PutUint32(p[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(p[4:], crc32.Checksum(payload, crcTable))
	l.buf = p[:0]
	var t0 time.Time
	if l.metrics != nil {
		t0 = time.Now()
	}
	if _, err := l.f.Write(p); err != nil {
		if terr := l.truncateBack(); terr != nil {
			l.broken = fmt.Errorf("%w: cutting partial frame: %v (append failed: %v)", ErrBroken, terr, err)
		}
		return fmt.Errorf("wal append: %w", err)
	}
	l.size += int64(len(p))
	if l.policy == SyncAlways {
		if err := l.syncTimed(); err != nil {
			return err
		}
	}
	if m := l.metrics; m != nil {
		m.Appends.Inc()
		m.AppendedBytes.Add(int64(len(p)))
		m.AppendSeconds.ObserveDuration(time.Since(t0))
	}
	return nil
}

// truncateBack restores the file to its last committed length after a
// failed append. Called with mu held.
func (l *Log) truncateBack() error {
	if err := l.f.Truncate(l.size); err != nil {
		return err
	}
	_, err := l.f.Seek(l.size, io.SeekStart)
	return err
}

// syncTimed fsyncs, reporting latency when instrumented. A failure marks
// the log broken. Called with mu held.
func (l *Log) syncTimed() error {
	var t0 time.Time
	m := l.metrics
	if m != nil {
		t0 = time.Now()
	}
	err := l.f.Sync()
	if m != nil {
		m.Fsyncs.Inc()
		m.FsyncSeconds.ObserveDuration(time.Since(t0))
	}
	if err != nil {
		l.broken = fmt.Errorf("%w: fsync failed: %v", ErrBroken, err)
		return fmt.Errorf("wal fsync: %w", err)
	}
	return nil
}

// Sync forces buffered records to stable storage. Used by the SyncInterval
// cadence and before a checkpoint retires the log.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	return l.syncTimed()
}

// Broken reports the error that condemned the log's file, or nil while the
// log is healthy. A broken log cannot be repaired in place; the durable
// store responds by rotating to a fresh log via checkpoint.
func (l *Log) Broken() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

// Size returns the current log length in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close syncs (unless the policy is SyncNever, or the log is already
// broken — syncing an untrustworthy file proves nothing) and closes the
// file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.policy != SyncNever && l.broken == nil {
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return err
		}
	}
	return l.f.Close()
}

func appendBox(p []byte, b geom.Box) []byte {
	for d := 0; d < geom.Dims; d++ {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(b.Min[d]))
	}
	for d := 0; d < geom.Dims; d++ {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(b.Max[d]))
	}
	return p
}

// readFrame reads the next frame (header + payload, verbatim) into buf's
// storage and returns it; pass the result back as buf to reuse the space.
// ok == false is the clean end of the intact prefix — EOF, a torn header or
// payload, a nonsense length, or a CRC mismatch, indistinguishable by design
// (all mean "no further record is trustworthy"); err is for real I/O failures.
func readFrame(br *bufio.Reader, buf []byte) (frame []byte, ok bool, err error) {
	frame = slices.Grow(buf[:0], 8)[:8]
	if _, err := io.ReadFull(br, frame); err != nil {
		return nil, false, cleanEOF(err)
	}
	plen := binary.LittleEndian.Uint32(frame[0:])
	want := binary.LittleEndian.Uint32(frame[4:])
	if plen == 0 || plen > maxPayload {
		return nil, false, nil
	}
	// Grow only as payload bytes arrive: a torn tail whose length field is
	// garbage costs one chunk, not the length it claims.
	for need := int(plen); need > 0; {
		at, step := len(frame), min(need, readChunk)
		frame = slices.Grow(frame, step)[:at+step]
		if _, err := io.ReadFull(br, frame[at:]); err != nil {
			return nil, false, cleanEOF(err)
		}
		need -= step
	}
	if crc32.Checksum(frame[8:], crcTable) != want {
		return nil, false, nil
	}
	return frame, true, nil
}

// cleanEOF maps running off the end of the data to nil (a clean end).
func cleanEOF(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	}
	return err
}

// decodePayload decodes a CRC-verified payload into rec; false means it is
// malformed (field lengths, unknown opcode) — corruption like any other.
func decodePayload(p []byte, rec *Record) bool {
	op := Op(p[0])
	p = p[1:]
	switch op {
	case OpInsert:
		if len(p) < 4 {
			return false
		}
		n := binary.LittleEndian.Uint32(p)
		p = p[4:]
		if uint64(len(p)) != uint64(n)*(4+6*8) {
			return false
		}
		objs := make([]geom.Object, n)
		for i := range objs {
			objs[i].ID = int32(binary.LittleEndian.Uint32(p))
			p = p[4:]
			p = readBox(p, &objs[i].Box)
		}
		*rec = Record{Op: OpInsert, Objects: objs}
		return true
	case OpDelete:
		if len(p) != 4+6*8 {
			return false
		}
		id := int32(binary.LittleEndian.Uint32(p))
		p = p[4:]
		var hint geom.Box
		readBox(p, &hint)
		*rec = Record{Op: OpDelete, ID: id, Hint: hint}
		return true
	default:
		return false
	}
}

func readBox(p []byte, b *geom.Box) []byte {
	for d := 0; d < geom.Dims; d++ {
		b.Min[d] = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	for d := 0; d < geom.Dims; d++ {
		b.Max[d] = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	return p
}
