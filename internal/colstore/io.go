// Columnar lane serialization: the on-disk half of the v2 snapshot format.
// A table's seven lanes are written directly — length-prefixed row count,
// then each lane as raw little-endian machine words — so persistence streams
// the same contiguous memory the query kernels run over, with no
// materialization into an array-of-structs and no per-row encoding overhead.
// A trailing CRC-32C over all lane bytes catches bit rot and truncation.

package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/geom"
)

// ioChunkRows is the number of rows encoded per buffered write. 4096 rows of
// one float64 lane is a 32 KiB buffer — large enough to amortize the Write
// calls, small enough to stay cache-resident.
const ioChunkRows = 4096

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WriteLanes serializes the table's rows to w: a uint64 row count, the six
// coordinate lanes (Min[0..Dims), then Max[0..Dims)) as raw little-endian
// float64 words, the ID lane as little-endian int32 words, and a trailing
// CRC-32C over every lane byte. No geom.Object is materialized.
func (t *Table) WriteLanes(w io.Writer) error {
	var hdr [8]byte
	n := t.Len()
	binary.LittleEndian.PutUint64(hdr[:], uint64(n))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	crc := crc32.New(crcTable)
	mw := io.MultiWriter(w, crc)
	var buf [8 * ioChunkRows]byte
	for d := 0; d < geom.Dims; d++ {
		if err := writeF64Lane(mw, t.Min[d], buf[:]); err != nil {
			return err
		}
	}
	for d := 0; d < geom.Dims; d++ {
		if err := writeF64Lane(mw, t.Max[d], buf[:]); err != nil {
			return err
		}
	}
	if err := writeI32Lane(mw, t.ID, buf[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[:4], crc.Sum32())
	_, err := w.Write(buf[:4])
	return err
}

// ReadLanes deserializes a table previously written with WriteLanes,
// overwriting t's rows (lanes are reused when large enough). maxRows bounds
// the decoded row count: a non-negative maxRows is an inclusive ceiling (0
// admits only an empty table); pass a negative value for no bound. Within
// the bound the row count is still only a claim, so the first lane grows in
// doubling steps as its bytes arrive — an input claiming millions of rows it
// does not carry fails at EOF having allocated about what it did carry —
// and only once that lane is complete are the other six sized in full.
func (t *Table) ReadLanes(r io.Reader, maxRows int) error {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("reading row count: %w", err)
	}
	n64 := binary.LittleEndian.Uint64(hdr[:])
	if n64 > uint64(math.MaxInt32) || (maxRows >= 0 && n64 > uint64(maxRows)) {
		return fmt.Errorf("row count %d out of range", n64)
	}
	n := int(n64)
	crc := crc32.New(crcTable)
	tr := io.TeeReader(r, crc)
	var buf [8 * ioChunkRows]byte
	first := t.Min[0][:0]
	for k := 0; k < n; k = len(first) {
		c := min(n-k, max(k, ioChunkRows))
		if cap(first) < k+c {
			first = append(make([]float64, 0, k+c), first...)
		}
		first = first[:k+c]
		if err := readF64Lane(tr, first[k:], buf[:]); err != nil {
			return fmt.Errorf("reading min lane 0: %w", err)
		}
	}
	t.Min[0] = first
	t.resize(n)
	for d := 1; d < geom.Dims; d++ {
		if err := readF64Lane(tr, t.Min[d], buf[:]); err != nil {
			return fmt.Errorf("reading min lane %d: %w", d, err)
		}
	}
	for d := 0; d < geom.Dims; d++ {
		if err := readF64Lane(tr, t.Max[d], buf[:]); err != nil {
			return fmt.Errorf("reading max lane %d: %w", d, err)
		}
	}
	if err := readI32Lane(tr, t.ID, buf[:]); err != nil {
		return fmt.Errorf("reading id lane: %w", err)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return fmt.Errorf("reading lane checksum: %w", err)
	}
	if got, want := crc.Sum32(), binary.LittleEndian.Uint32(buf[:4]); got != want {
		return fmt.Errorf("lane checksum mismatch: computed %08x, stored %08x", got, want)
	}
	return nil
}

func writeF64Lane(w io.Writer, lane []float64, buf []byte) error {
	for len(lane) > 0 {
		c := len(lane)
		if c > ioChunkRows {
			c = ioChunkRows
		}
		for i := 0; i < c; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(lane[i]))
		}
		if _, err := w.Write(buf[:8*c]); err != nil {
			return err
		}
		lane = lane[c:]
	}
	return nil
}

func readF64Lane(r io.Reader, lane []float64, buf []byte) error {
	for len(lane) > 0 {
		c := len(lane)
		if c > ioChunkRows {
			c = ioChunkRows
		}
		if _, err := io.ReadFull(r, buf[:8*c]); err != nil {
			return err
		}
		for i := 0; i < c; i++ {
			lane[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		lane = lane[c:]
	}
	return nil
}

func writeI32Lane(w io.Writer, lane []int32, buf []byte) error {
	for len(lane) > 0 {
		c := len(lane)
		if c > 2*ioChunkRows {
			c = 2 * ioChunkRows
		}
		for i := 0; i < c; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(lane[i]))
		}
		if _, err := w.Write(buf[:4*c]); err != nil {
			return err
		}
		lane = lane[c:]
	}
	return nil
}

func readI32Lane(r io.Reader, lane []int32, buf []byte) error {
	for len(lane) > 0 {
		c := len(lane)
		if c > 2*ioChunkRows {
			c = 2 * ioChunkRows
		}
		if _, err := io.ReadFull(r, buf[:4*c]); err != nil {
			return err
		}
		for i := 0; i < c; i++ {
			lane[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		lane = lane[c:]
	}
	return nil
}
