package colstore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
)

func randomTable(n int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]geom.Object, n)
	for i := range objs {
		var b geom.Box
		for d := 0; d < geom.Dims; d++ {
			lo := rng.Float64() * 1000
			b.Min[d] = lo
			b.Max[d] = lo + rng.Float64()*10
		}
		objs[i] = geom.Object{Box: b, ID: int32(i)}
	}
	return FromObjects(objs)
}

func tablesEqual(a, b *Table) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.ObjectAt(i) != b.ObjectAt(i) {
			return false
		}
	}
	return true
}

func TestLaneRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, ioChunkRows, ioChunkRows + 1, 3*ioChunkRows + 17} {
		src := randomTable(n, int64(n)+1)
		var buf bytes.Buffer
		if err := src.WriteLanes(&buf); err != nil {
			t.Fatalf("n=%d: WriteLanes: %v", n, err)
		}
		var dst Table
		if err := dst.ReadLanes(&buf, -1); err != nil {
			t.Fatalf("n=%d: ReadLanes: %v", n, err)
		}
		if !tablesEqual(src, &dst) {
			t.Fatalf("n=%d: round trip changed table contents", n)
		}
		if buf.Len() != 0 {
			t.Fatalf("n=%d: %d unread bytes after ReadLanes", n, buf.Len())
		}
	}
}

func TestLaneReuseAcrossReads(t *testing.T) {
	big := randomTable(5000, 1)
	small := randomTable(10, 2)
	var bigBuf, smallBuf bytes.Buffer
	if err := big.WriteLanes(&bigBuf); err != nil {
		t.Fatal(err)
	}
	if err := small.WriteLanes(&smallBuf); err != nil {
		t.Fatal(err)
	}
	var dst Table
	if err := dst.ReadLanes(&bigBuf, -1); err != nil {
		t.Fatal(err)
	}
	if err := dst.ReadLanes(&smallBuf, -1); err != nil {
		t.Fatal(err)
	}
	if !tablesEqual(small, &dst) {
		t.Fatal("reused table does not match second payload")
	}
}

func TestLaneChecksumDetectsCorruption(t *testing.T) {
	src := randomTable(100, 3)
	var buf bytes.Buffer
	if err := src.WriteLanes(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0x40 // flip one lane bit
	var dst Table
	if err := dst.ReadLanes(bytes.NewReader(raw), -1); err == nil {
		t.Fatal("corrupted lanes decoded without error")
	}
}

func TestLaneRowBound(t *testing.T) {
	src := randomTable(100, 4)
	var buf bytes.Buffer
	if err := src.WriteLanes(&buf); err != nil {
		t.Fatal(err)
	}
	var dst Table
	if err := dst.ReadLanes(bytes.NewReader(buf.Bytes()), 50); err == nil {
		t.Fatal("row count above maxRows decoded without error")
	}
	if err := dst.ReadLanes(bytes.NewReader(buf.Bytes()), 100); err != nil {
		t.Fatalf("row count at maxRows rejected: %v", err)
	}
}

func TestLaneTruncationDetected(t *testing.T) {
	src := randomTable(200, 5)
	var buf bytes.Buffer
	if err := src.WriteLanes(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var dst Table
	if err := dst.ReadLanes(bytes.NewReader(raw[:len(raw)-5]), -1); err == nil {
		t.Fatal("truncated lanes decoded without error")
	}
}

// TestLaneRowClaimBoundedAllocation: a lane block whose row count claims
// millions of rows it does not carry must fail at EOF having allocated about
// what it read, not the seven lanes the claim would size.
func TestLaneRowClaimBoundedAllocation(t *testing.T) {
	src := randomTable(8, 6)
	var buf bytes.Buffer
	if err := src.WriteLanes(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint64(raw, 8_000_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var dst Table
	err := dst.ReadLanes(bytes.NewReader(raw), -1)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("lane block claiming 8,000,000 rows decoded from a few hundred bytes")
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<20); got > limit {
		t.Fatalf("ReadLanes allocated %d bytes for a %d-byte input claiming 8,000,000 rows, want < %d",
			got, len(raw), limit)
	}
}
