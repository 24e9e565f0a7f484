package wal

import (
	"bufio"
	"io"
	"os"

	"repro/internal/faultfs"
)

// Reader streams the intact prefix of a log file as raw, CRC-verified
// frames — the replication leader's read side. Unlike Replay it returns the
// frame bytes verbatim (header + payload) so they can be shipped over the
// wire unchanged and re-verified by the receiver; it never decodes the
// payload. A Reader is independent of any Log appending to the same file:
// it stops cleanly at the first torn or corrupt frame (the live append
// boundary, or a crash footprint), and the caller resumes from the next
// frame on a later read.
type Reader struct {
	f   faultfs.File
	br  *bufio.Reader
	buf []byte // frame scratch, reused across calls
}

// OpenReader opens the log at path for raw frame reads.
func OpenReader(path string) (*Reader, error) {
	return OpenReaderFS(faultfs.OS{}, path)
}

// OpenReaderFS is OpenReader over an injectable file system.
func OpenReaderFS(fsys faultfs.FS, path string) (*Reader, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	return &Reader{f: f, br: bufio.NewReaderSize(f, 1<<16)}, nil
}

// Next returns the next intact frame. The returned slice is valid only
// until the next call. ok == false is the clean end of the intact prefix
// (EOF, a torn frame, or a corrupt one — indistinguishable by design, and
// all mean "no further record is trustworthy"); err is reserved for real
// I/O failures.
func (r *Reader) Next() (frame []byte, ok bool, err error) {
	frame, ok, err = readFrame(r.br, r.buf)
	if ok {
		r.buf = frame
	}
	return frame, ok, err
}

// Skip advances past up to n frames, verifying each, and reports how many
// intact frames it actually skipped. Fewer than n means the intact prefix
// ended early — either the log is shorter than the caller believed or a
// middle record rotted, which the caller must treat as truncated history.
func (r *Reader) Skip(n uint64) (uint64, error) {
	var done uint64
	for done < n {
		_, ok, err := r.Next()
		if err != nil {
			return done, err
		}
		if !ok {
			return done, nil
		}
		done++
	}
	return done, nil
}

// Close releases the file handle.
func (r *Reader) Close() error { return r.f.Close() }

// StreamDecoder decodes framed records from an arbitrary byte stream — the
// replication follower's receive side, reading frames off the wire exactly
// as replay reads them off disk. A torn or corrupt frame ends the stream
// cleanly (ok == false): everything decoded before it was CRC-verified,
// everything after it is untrusted and must be re-fetched.
type StreamDecoder struct {
	br  *bufio.Reader
	buf []byte // frame scratch, reused across calls
}

// NewStreamDecoder wraps r for record decoding.
func NewStreamDecoder(r io.Reader) *StreamDecoder {
	return &StreamDecoder{br: bufio.NewReaderSize(r, 1<<16)}
}

// Next decodes the next record into rec; ok == false is the clean end of
// the intact stream prefix.
func (d *StreamDecoder) Next(rec *Record) (bool, error) {
	frame, ok, err := readFrame(d.br, d.buf)
	if err != nil || !ok {
		return false, err
	}
	d.buf = frame
	return decodePayload(frame[8:], rec), nil
}
