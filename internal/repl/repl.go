// Package repl replicates a durable store over HTTP: a Leader serves its
// latest checkpoint generation (GET /repl/snapshot) and framed WAL records
// from any retained global sequence (GET /repl/wal?from=N, long-polling at
// the tail); a Follower bootstraps from the snapshot, replays it through
// the normal shard restore path, then tails the leader applying records as
// they arrive — every fetch wrapped in bounded exponential backoff with
// jitter and per-request timeouts, resuming from its own durable
// next-sequence so a flaky or partitioned link can never corrupt or
// duplicate state.
//
// # Wire protocol
//
// Both endpoints answer application/octet-stream with three headers:
// X-Quasii-Repl-Gen (the generation served), X-Quasii-Repl-Start-Seq (the
// global sequence of the first byte of the body) and X-Quasii-Repl-Next-Seq
// (the leader's next sequence when the response started). The follower's
// lag reference is the larger of that header and the sequence after the
// last frame decoded off a WAL stream: the leader keeps shipping frames
// logged after it stamped the header.
//
// /repl/snapshot streams the pinned live generation as a flat archive of
// CRC-framed files (see WriteArchive) terminated by an explicit sentinel,
// so a connection cut mid-stream is always detectable.
//
// /repl/wal?from=N&wait=ms streams raw WAL frames starting exactly at
// sequence N; each frame carries its own CRC (the on-disk format shipped
// verbatim), so the follower re-verifies every record and a torn stream
// ends cleanly at a frame boundary. 204 means the long poll expired with
// nothing new; 410 Gone means N predates retained history and the follower
// must re-bootstrap; 409 Conflict means N is ahead of the leader's log (a
// diverged pair) and likewise forces a re-bootstrap.
//
// # Guarantees
//
// Replication is asynchronous: a leader acknowledges writes before any
// follower has them, so promotion after a leader crash can lose the last
// lag window of acknowledged writes (bound it by gating clients on the
// follower's /readyz max-lag). What is guaranteed: a follower never serves
// a record the leader did not durably log, never applies a record twice,
// and never applies a corrupt one — every failure mode of the link ends in
// the follower caught up or cleanly re-bootstrapping.
//
// Every follower disk write, bootstrap included, goes through
// FollowerOptions.Store.FS, so one faultfs configuration covers it all.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/faultfs"
	"repro/internal/shard"
)

// Endpoint paths and header names shared by leader and follower.
const (
	PathSnapshot = "/repl/snapshot"
	PathWAL      = "/repl/wal"
	PathPromote  = "/repl/promote"

	HdrGen      = "X-Quasii-Repl-Gen"
	HdrStartSeq = "X-Quasii-Repl-Start-Seq"
	HdrNextSeq  = "X-Quasii-Repl-Next-Seq"
)

// ErrTornStream reports a snapshot archive that ended before its sentinel
// or failed a file CRC — the footprint of a connection cut or corrupted in
// flight. The fetched state is discarded and the bootstrap retried.
var ErrTornStream = errors.New("repl: snapshot stream torn or corrupt")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Archive framing: a flat sequence of files, each
//
//	uint32 name length | name | uint64 size | uint32 CRC-32C | bytes
//
// (little-endian), terminated by a zero name length. The terminator is what
// makes truncation detectable: a reader that hits EOF before it knows the
// stream is torn.
const (
	maxArchiveName = 4096
	maxArchiveFile = 1 << 31
)

// WriteArchive streams every regular file of dir (a flat snapshot
// directory) to w in the archive framing, ending with the sentinel.
func WriteArchive(w io.Writer, dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var hdr [16]byte
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(name)))
		if _, err := w.Write(hdr[:4]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, name); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(hdr[0:], uint64(len(data)))
		binary.LittleEndian.PutUint32(hdr[8:], crc32.Checksum(data, crcTable))
		if _, err := w.Write(hdr[:12]); err != nil {
			return err
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(hdr[0:], 0)
	_, err = w.Write(hdr[:4])
	return err
}

// ReadArchive reads an archive stream into dir (created if needed) on fsys,
// fsyncs every file and the directory, and fails with ErrTornStream on any
// truncation or CRC mismatch. File names are confined to dir.
func ReadArchive(fsys faultfs.FS, r io.Reader, dir string) error {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var hdr [16]byte
	for {
		if _, err := io.ReadFull(r, hdr[:4]); err != nil {
			return fmt.Errorf("%w: reading name length: %v", ErrTornStream, err)
		}
		nameLen := binary.LittleEndian.Uint32(hdr[0:])
		if nameLen == 0 {
			return fsys.SyncDir(dir) // sentinel: complete archive
		}
		if nameLen > maxArchiveName {
			return fmt.Errorf("%w: name length %d", ErrTornStream, nameLen)
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(r, nameBuf); err != nil {
			return fmt.Errorf("%w: reading name: %v", ErrTornStream, err)
		}
		name := string(nameBuf)
		if !shard.IsBaseName(name) {
			return fmt.Errorf("%w: unsafe file name %q", ErrTornStream, name)
		}
		if _, err := io.ReadFull(r, hdr[:12]); err != nil {
			return fmt.Errorf("%w: reading file header: %v", ErrTornStream, err)
		}
		size := binary.LittleEndian.Uint64(hdr[0:])
		want := binary.LittleEndian.Uint32(hdr[8:])
		if size > maxArchiveFile {
			return fmt.Errorf("%w: file size %d", ErrTornStream, size)
		}
		// The size is only a claim until its bytes arrive: reading through a
		// limit grows the buffer with what the stream carries, not what it says.
		data, err := io.ReadAll(io.LimitReader(r, int64(size)))
		if err == nil && uint64(len(data)) != size {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return fmt.Errorf("%w: reading %s: %v", ErrTornStream, name, err)
		}
		if crc32.Checksum(data, crcTable) != want {
			return fmt.Errorf("%w: crc mismatch on %s", ErrTornStream, name)
		}
		if err := faultfs.WriteFileSync(fsys, filepath.Join(dir, name), data, false); err != nil {
			return err
		}
	}
}
