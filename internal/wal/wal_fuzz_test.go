package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
)

// mixedLog builds a valid log of inserts (one- and multi-object) and
// deletes and returns its bytes plus the offset where the last frame starts.
func mixedLog(t testing.TB) (data []byte, lastStart int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seed.log")
	l, err := Create(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	appends := []func() error{
		func() error { return l.AppendInsert([]geom.Object{obj(1, 10)}) },
		func() error { return l.AppendDelete(1, obj(1, 10).Box) },
		func() error { return l.AppendInsert([]geom.Object{obj(2, 20), obj(3, 30), obj(4, 40)}) },
		func() error { return l.AppendDelete(3, obj(3, 30).Box) },
		func() error { return l.AppendInsert([]geom.Object{obj(5, 50)}) },
	}
	for _, app := range appends {
		lastStart = int(l.Size())
		if err := app(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, lastStart
}

// FuzzWALFrames feeds arbitrary bytes to every reader of the frame format
// and requires them to tell one story about the intact prefix: Replay and
// the StreamDecoder decode the same records; the raw Reader yields exactly
// the frames a validate-only open keeps; a replaying open truncates to
// exactly the frames it replayed; and the two counts differ only where a
// CRC-valid frame carries a payload that does not decode. Nothing panics.
func FuzzWALFrames(f *testing.F) {
	valid, lastStart := mixedLog(f)
	f.Add(valid)
	f.Add([]byte{})
	mutate := func(at int, flip byte) {
		b := bytes.Clone(valid)
		b[at] ^= flip
		f.Add(b)
	}
	mutate(0, 0x01)            // length field, first frame
	mutate(lastStart+3, 0x80)  // length field, last frame: huge claim
	mutate(lastStart+5, 0x10)  // CRC field
	mutate(lastStart+8, 0x02)  // opcode byte under a now-stale CRC
	mutate(len(valid)-1, 0x40) // payload byte
	for cut := lastStart; cut < len(valid); cut++ {
		f.Add(bytes.Clone(valid[:cut])) // truncation at every offset of the last frame
	}
	// A CRC-valid frame whose payload does not decode (unknown opcode).
	bogus := []byte{0x7f, 1, 2, 3}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(bogus)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(bogus, crcTable))
	frame = append(frame, bogus...)
	f.Add(append(bytes.Clone(valid[:lastStart]), append(frame, valid[lastStart:]...)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		write := func(name string) string {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}
		path := write("wal.log")

		// The raw Reader: CRC-valid frames, and how many of them decode.
		rd, err := OpenReader(path)
		if err != nil {
			t.Fatal(err)
		}
		var frames, decodable int
		var frameOff, decodeOff int64
		for {
			fr, ok, err := rd.Next()
			if err != nil {
				t.Fatalf("Reader.Next: %v", err)
			}
			if !ok {
				break
			}
			var rec Record
			if decodable == frames && decodePayload(fr[8:], &rec) {
				decodable++
				decodeOff += int64(len(fr))
			}
			frames++
			frameOff += int64(len(fr))
		}
		rd.Close()

		var replayed []Record
		n, err := Replay(path, func(r *Record) error {
			replayed = append(replayed, *r)
			return nil
		})
		if err != nil || n != decodable || len(replayed) != n {
			t.Fatalf("Replay = %d records (err %v), Reader saw %d decodable of %d frames", n, err, decodable, frames)
		}

		var streamed []Record
		dec := NewStreamDecoder(bytes.NewReader(data))
		for {
			var rec Record
			ok, err := dec.Next(&rec)
			if err != nil {
				t.Fatalf("StreamDecoder.Next: %v", err)
			}
			if !ok {
				break
			}
			streamed = append(streamed, rec)
		}
		// Compared as text: a decoded NaN coordinate must not fail the match.
		if fmt.Sprint(streamed) != fmt.Sprint(replayed) {
			t.Fatalf("StreamDecoder decoded %d records, Replay %d, or their contents differ", len(streamed), len(replayed))
		}

		// Opening truncates to exactly the prefix each mode accepted.
		reopen := func(name string, apply func(*Record) error, wantN int, wantOff int64) {
			p := write(name)
			l, n, err := OpenReplay(p, SyncNever, apply)
			if err != nil {
				t.Fatalf("OpenReplay(%s): %v", name, err)
			}
			defer l.Close()
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			if n != wantN || fi.Size() != wantOff || l.Size() != wantOff || l.TruncatedBytes() != int64(len(data))-wantOff {
				t.Fatalf("OpenReplay(%s) = %d records, file %d bytes, log size %d, truncated %d; want %d records at offset %d of %d",
					name, n, fi.Size(), l.Size(), l.TruncatedBytes(), wantN, wantOff, len(data))
			}
		}
		reopen("validate.log", nil, frames, frameOff)
		reopen("replay.log", func(*Record) error { return nil }, decodable, decodeOff)
	})
}
