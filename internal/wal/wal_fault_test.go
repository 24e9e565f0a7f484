package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/geom"
)

// writeRecords builds a clean log of n insert records and returns its path
// plus the byte offset of every frame boundary (offsets[i] = end of record
// i; offsets[n-1] = file size).
func writeRecords(t *testing.T, n int) (string, []int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := CreateFS(faultfs.OS{}, path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	offsets := make([]int64, n)
	for i := 0; i < n; i++ {
		if err := l.AppendInsert([]geom.Object{obj(int32(i+1), float64(10*(i+1)))}); err != nil {
			t.Fatal(err)
		}
		offsets[i] = l.Size()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path, offsets
}

func replayIDs(t *testing.T, path string) (ids []int32, truncated int64) {
	t.Helper()
	l, _, err := OpenReplayFS(faultfs.OS{}, path, SyncNever, func(r *Record) error {
		for i := range r.Objects {
			ids = append(ids, r.Objects[i].ID)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("OpenReplay: %v", err)
	}
	truncated = l.TruncatedBytes()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return ids, truncated
}

// Truncation landing exactly on a frame boundary is not a torn tail at all:
// the file simply ends with one fewer record, and recovery must report zero
// truncated bytes and replay every surviving record.
func TestTornTailExactFrameBoundary(t *testing.T) {
	path, offsets := writeRecords(t, 3)
	if err := os.Truncate(path, offsets[1]); err != nil {
		t.Fatal(err)
	}
	ids, truncated := replayIDs(t, path)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("replayed IDs %v, want [1 2]", ids)
	}
	if truncated != 0 {
		t.Fatalf("TruncatedBytes = %d, want 0 (boundary cut is a clean end)", truncated)
	}
}

// Corruption in the CRC field itself (not the payload) must invalidate the
// frame: the stored checksum no longer matches the intact payload, so
// replay stops before the record and recovery cuts the whole frame.
func TestTornTailCRCFieldCorruption(t *testing.T) {
	path, offsets := writeRecords(t, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Record 2's frame starts at offsets[1]; its CRC field is bytes 4..8 of
	// the frame. Flip one bit of the stored checksum.
	crcOff := offsets[1] + 4
	data[crcOff] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ids, truncated := replayIDs(t, path)
	if len(ids) != 2 || ids[1] != 2 {
		t.Fatalf("replayed IDs %v, want [1 2]", ids)
	}
	wantCut := offsets[2] - offsets[1]
	if truncated != wantCut {
		t.Fatalf("TruncatedBytes = %d, want %d (the corrupt-CRC frame)", truncated, wantCut)
	}
	// Recovery equivalence: after the cut, a fresh append + replay sees the
	// surviving prefix plus the new record, nothing else.
	l, err := CreateFS(faultfs.OS{}, path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendInsert([]geom.Object{obj(9, 90)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ids, _ = replayIDs(t, path)
	if len(ids) != 3 || ids[2] != 9 {
		t.Fatalf("post-recovery IDs %v, want [1 2 9]", ids)
	}
}

// A zero-length tail file (crash between create and first append, or a
// checkpoint that rotated but never wrote) is a valid empty log.
func TestTornTailZeroLengthFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ids, truncated := replayIDs(t, path)
	if len(ids) != 0 {
		t.Fatalf("replayed IDs %v from empty file, want none", ids)
	}
	if truncated != 0 {
		t.Fatalf("TruncatedBytes = %d, want 0", truncated)
	}
	// And it must accept appends afterwards.
	l, err := CreateFS(faultfs.OS{}, path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendInsert([]geom.Object{obj(1, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ids, _ = replayIDs(t, path)
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("IDs after append to empty log = %v, want [1]", ids)
	}
}

// Truncation mid-header (fewer than the 8 framing bytes left) is the
// classic torn tail; recovery reports exactly the dangling byte count.
func TestTornTailMidHeader(t *testing.T) {
	path, offsets := writeRecords(t, 2)
	if err := os.Truncate(path, offsets[0]+5); err != nil {
		t.Fatal(err)
	}
	ids, truncated := replayIDs(t, path)
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("replayed IDs %v, want [1]", ids)
	}
	if truncated != 5 {
		t.Fatalf("TruncatedBytes = %d, want 5", truncated)
	}
}

// A failed append must self-repair: the partial frame is cut back, the
// error surfaces to the caller, and a retry of the same append succeeds
// with the log ending in a fully intact state.
func TestAppendSelfRepairAfterShortWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	ff := faultfs.New(nil, faultfs.Config{Rules: []*faultfs.Rule{
		{Kind: faultfs.KindShortWrite, Op: faultfs.OpWrite, Times: 1},
	}})
	l, err := CreateFS(ff, path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendInsert([]geom.Object{obj(1, 10)}); err == nil {
		t.Fatal("first append must fail (short write injected)")
	}
	if l.Broken() != nil {
		t.Fatalf("self-repair succeeded, log must not be broken: %v", l.Broken())
	}
	// The torn prefix must be gone from disk.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("partial frame not cut back: file is %d bytes", fi.Size())
	}
	// Retry succeeds and the log replays exactly the retried record.
	if err := l.AppendInsert([]geom.Object{obj(1, 10)}); err != nil {
		t.Fatalf("retried append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ids, truncated := replayIDs(t, path)
	if len(ids) != 1 || ids[0] != 1 || truncated != 0 {
		t.Fatalf("after repair: IDs %v truncated %d, want [1] 0", ids, truncated)
	}
}

// ENOSPC fails the append cleanly (nothing written), stays retryable, and
// surfaces an error that classifies as ENOSPC through the wrapping.
func TestAppendENOSPCIsCleanAndRetryable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	ff := faultfs.New(nil, faultfs.Config{Rules: []*faultfs.Rule{
		{Kind: faultfs.KindENOSPC, Op: faultfs.OpWrite, Times: 2},
	}})
	l, err := CreateFS(ff, path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		err := l.AppendInsert([]geom.Object{obj(1, 10)})
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("append %d: want ENOSPC through the wrap, got %v", i, err)
		}
	}
	if l.Broken() != nil {
		t.Fatalf("ENOSPC must not break the log: %v", l.Broken())
	}
	if err := l.AppendInsert([]geom.Object{obj(1, 10)}); err != nil {
		t.Fatalf("append after faults exhausted: %v", err)
	}
	l.Close()
	ids, _ := replayIDs(t, path)
	if len(ids) != 1 {
		t.Fatalf("IDs %v, want exactly the one acked append", ids)
	}
}

// A failed fsync condemns the file: the append that triggered it errors,
// and every later append or sync returns ErrBroken without touching disk.
func TestFsyncFailureBreaksLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	ff := faultfs.New(nil, faultfs.Config{Rules: []*faultfs.Rule{
		{Kind: faultfs.KindErr, Op: faultfs.OpSync, Times: 1},
	}})
	l, err := CreateFS(ff, path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendInsert([]geom.Object{obj(1, 10)}); err == nil {
		t.Fatal("append must surface the fsync failure")
	}
	if !errors.Is(l.Broken(), ErrBroken) {
		t.Fatalf("Broken() = %v, want ErrBroken", l.Broken())
	}
	if err := l.AppendInsert([]geom.Object{obj(2, 20)}); !errors.Is(err, ErrBroken) {
		t.Fatalf("append on broken log = %v, want ErrBroken", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrBroken) {
		t.Fatalf("sync on broken log = %v, want ErrBroken", err)
	}
	l.Close()
}

// Bit-rot inside an appended frame is caught by the CRC on replay: the
// rotted record and everything after it are cut, earlier records survive.
func TestBitRotCaughtByCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	ff := faultfs.New(nil, faultfs.Config{Rules: []*faultfs.Rule{
		// Mutating steps under SyncNever: create=1, open-time truncate=2,
		// then one write per append — rot the second record's write (4).
		{Kind: faultfs.KindBitRot, Op: faultfs.OpWrite, AfterStep: 4, Times: 1},
	}})
	l, err := CreateFS(ff, path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := l.AppendInsert([]geom.Object{obj(int32(i), float64(10*i))}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	l.Close()
	ids, truncated := replayIDs(t, path)
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("IDs %v, want [1] (rotted record 2 and the shadowed record 3 cut)", ids)
	}
	if truncated == 0 {
		t.Fatal("TruncatedBytes must count the rotted tail")
	}
}

// The header length field corrupting to a huge value must not force a huge
// allocation — maxPayload bounds it and replay treats it as a corrupt tail.
func TestCorruptLengthFieldBounded(t *testing.T) {
	path, offsets := writeRecords(t, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[offsets[0]:], 0xFFFFFFFF)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ids, truncated := replayIDs(t, path)
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("IDs %v, want [1]", ids)
	}
	if truncated != offsets[1]-offsets[0] {
		t.Fatalf("TruncatedBytes = %d, want %d", truncated, offsets[1]-offsets[0])
	}
}

// A torn tail whose four length bytes are garbage inside the maxPayload
// bound must cost one read chunk, not the gigabyte it claims: the buffer
// grows only as payload bytes actually arrive. Replay (recovery) and the
// StreamDecoder (a follower decoding a corrupted /repl/wal body) both end
// cleanly on it.
func TestTornTailGarbageLengthBoundedAllocation(t *testing.T) {
	var tail [12]byte
	binary.LittleEndian.PutUint32(tail[0:], maxPayload-1)
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, tail[:], 0o644); err != nil {
		t.Fatal(err)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const limit = 4 << 20

	got := allocated(func() {
		n, err := Replay(path, func(*Record) error { return nil })
		if n != 0 || err != nil {
			t.Errorf("Replay = %d records, err %v; want 0, nil", n, err)
		}
	})
	if got > limit {
		t.Errorf("Replay allocated %d bytes discovering a 12-byte torn tail, want < %d", got, limit)
	}

	got = allocated(func() {
		var rec Record
		ok, err := NewStreamDecoder(bytes.NewReader(tail[:])).Next(&rec)
		if ok || err != nil {
			t.Errorf("StreamDecoder.Next = %v, err %v; want false, nil", ok, err)
		}
	})
	if got > limit {
		t.Errorf("StreamDecoder allocated %d bytes discovering a 12-byte torn tail, want < %d", got, limit)
	}
}
