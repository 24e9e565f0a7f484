package repl

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/faultfs"
	"repro/internal/geom"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// newLeaderStore opens a durable store bootstrapped with data in a fresh
// temp dir. FsyncNever keeps the tests fast; durability per se is the
// durable package's problem, replication only needs the record stream.
func newLeaderStore(t *testing.T, data []geom.Object) *durable.Store {
	t.Helper()
	st, err := durable.Open(t.TempDir(), durable.Options{
		Shard:     shard.Config{Shards: 2},
		Bootstrap: func() []geom.Object { return data },
		Fsync:     durable.FsyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// leaderServer mounts the leader's two replication handlers on a plain mux
// — the protocol needs nothing from the serving layer.
func leaderServer(t *testing.T, l *Leader) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc(PathSnapshot, l.ServeSnapshot)
	mux.HandleFunc(PathWAL, l.ServeWAL)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// followerOpts returns tight-timing follower options pointed at leaderURL,
// with rt (nil = default transport) on the link.
func followerOpts(t *testing.T, leaderURL string, rt http.RoundTripper) FollowerOptions {
	t.Helper()
	return FollowerOptions{
		LeaderURL:  leaderURL,
		Dir:        filepath.Join(t.TempDir(), "follower"),
		Store:      durable.Options{Shard: shard.Config{Shards: 2}, Fsync: durable.FsyncNever},
		PollWait:   100 * time.Millisecond,
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
		Transport:  rt,
	}
}

// applyWrites drives n insert operations (IDs base..base+n-1, boxes drawn
// from the dataset's own geometry) at st, deleting every third one again —
// the same mixed write stream the durable crash tests use.
func applyWrites(t *testing.T, st *durable.Store, data []geom.Object, base int32, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		obj := geom.Object{Box: data[i%len(data)].Box, ID: base + int32(i)}
		if err := st.Insert(obj); err != nil {
			t.Fatalf("insert %d: %v", obj.ID, err)
		}
		if i%3 == 0 {
			if _, err := st.Delete(obj.ID, obj.Box); err != nil {
				t.Fatalf("delete %d: %v", obj.ID, err)
			}
		}
	}
}

func universeIDs(st *durable.Store) []int32 {
	ids := append([]int32(nil), st.Index().Query(dataset.Universe(), nil)...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// waitCaughtUp polls until the follower's durable next-sequence equals the
// leader's. Call only after the leader's writers are done.
func waitCaughtUp(t *testing.T, f *Follower, leader *durable.Store, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		fs := f.Store()
		if fs != nil && fs.NextSeq() == leader.NextSeq() {
			return
		}
		if time.Now().After(deadline) {
			var got uint64
			if fs != nil {
				got = fs.NextSeq()
			}
			t.Fatalf("follower never caught up: follower next_seq %d, leader %d", got, leader.NextSeq())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// requireSameState asserts leader and follower answer the full-universe
// query with identical ID sets — a duplicate-applied record would surface
// as a doubled ID, a lost one as a missing ID — and agree on the sequence.
func requireSameState(t *testing.T, leader, follower *durable.Store) {
	t.Helper()
	if ln, fn := leader.NextSeq(), follower.NextSeq(); ln != fn {
		t.Fatalf("sequence mismatch: leader next_seq %d, follower %d", ln, fn)
	}
	lids, fids := universeIDs(leader), universeIDs(follower)
	if len(lids) != len(fids) {
		t.Fatalf("object count mismatch: leader %d, follower %d", len(lids), len(fids))
	}
	for i := range lids {
		if lids[i] != fids[i] {
			t.Fatalf("ID set diverges at %d: leader %d, follower %d", i, lids[i], fids[i])
		}
	}
}

// earliestHeader rewrites a 200 WAL response's next-seq header to from+1:
// the value a leader stamps when the response starts the instant the first
// record lands and every other shipped frame is logged while the stream is
// open — the stalest header the protocol allows, made deterministic.
type earliestHeader struct {
	http.ResponseWriter
	from    uint64
	stamped bool
}

func (w *earliestHeader) Write(p []byte) (int, error) {
	if !w.stamped {
		w.stamped = true
		w.Header().Set(HdrNextSeq, itoa(w.from+1))
	}
	return w.ResponseWriter.Write(p)
}

func TestFollowerBootstrapAndTail(t *testing.T) {
	data := dataset.Uniform(1000, 11)
	st := newLeaderStore(t, data)
	l := NewLeader(st, nil, nil)
	mux := http.NewServeMux()
	mux.HandleFunc(PathSnapshot, l.ServeSnapshot)
	mux.HandleFunc(PathWAL, func(w http.ResponseWriter, r *http.Request) {
		from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		l.ServeWAL(&earliestHeader{ResponseWriter: w, from: from}, r)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	f, err := Open(context.Background(), followerOpts(t, srv.URL, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Bootstrap alone must reproduce the dataset.
	requireSameState(t, st, f.Store())

	// Live writes ship through the tail. While the writer runs, the lag
	// reference must never trail the follower's own position: the leader
	// keeps shipping frames logged after it stamped the response header, so
	// a header-only reference would fall behind applied and report lag 0
	// exactly when the follower is furthest back.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; i < 3000; i++ {
			obj := geom.Object{Box: data[i%len(data)].Box, ID: 1_000_000 + int32(i)}
			if err := st.Insert(obj); err != nil {
				t.Errorf("insert %d: %v", obj.ID, err)
				return
			}
		}
	}()
	probes := 0
	for running := true; running; probes++ {
		select {
		case <-writerDone:
			running = false
		default:
		}
		applied, leaderSeq, lagRec, _, _ := f.ReplProbe()
		if leaderSeq < applied+1 {
			t.Fatalf("probe %d: leader seq %d behind applied seq %d", probes, leaderSeq, applied)
		}
		if want := int64(leaderSeq - (applied + 1)); lagRec != want {
			t.Fatalf("probe %d: lag %d records, want %d (leader %d, applied %d)", probes, lagRec, want, leaderSeq, applied)
		}
		time.Sleep(20 * time.Microsecond)
	}
	applyWrites(t, st, data, 2_000_000, 30)
	waitCaughtUp(t, f, st, 10*time.Second)
	requireSameState(t, st, f.Store())

	applied, leaderSeq, lagRec, _, boot := f.ReplProbe()
	if !boot {
		t.Fatal("ReplProbe: not bootstrapped after bootstrap")
	}
	if lagRec != 0 {
		t.Fatalf("ReplProbe: lag %d records after catch-up", lagRec)
	}
	if want := st.NextSeq() - 1; applied != want {
		t.Fatalf("ReplProbe: applied seq %d, want %d", applied, want)
	}
	if leaderSeq != st.NextSeq() {
		t.Fatalf("ReplProbe: observed leader seq %d, want %d", leaderSeq, st.NextSeq())
	}
	if f.Writable() {
		t.Fatal("follower writable before promotion")
	}
}

// TestFollowerFaultInjection drives every transport failure mode the link
// can exhibit — dropped connections, stalls, bodies cut mid-frame, bit
// flips — against a live write stream and requires the follower to end
// exactly caught up: every record applied exactly once, none corrupt,
// none duplicated. The transport analogue of the faultfs crash sweep.
func TestFollowerFaultInjection(t *testing.T) {
	cases := []struct {
		name  string
		rules []FaultRule
	}{
		{"connection-errors", []FaultRule{
			{Path: PathWAL, Kind: FaultError, Every: 3},
		}},
		{"stalls", []FaultRule{
			{Path: PathWAL, Kind: FaultStall, Every: 4, Delay: 30 * time.Millisecond},
		}},
		{"torn-wal-stream", []FaultRule{
			// Cut the body mid-frame: a partial batch applies, the torn
			// frame must not, and the next poll resumes exactly there.
			{Path: PathWAL, Kind: FaultTruncate, Every: 3, Bytes: 200},
		}},
		{"corrupt-wal-frame", []FaultRule{
			// Flip a payload bit: the per-frame CRC must reject it and end
			// the batch cleanly before the bad record.
			{Path: PathWAL, Kind: FaultCorrupt, Every: 3, Bytes: 10},
		}},
		{"torn-snapshot-bootstrap", []FaultRule{
			// First bootstrap attempt delivers a cut archive; the missing
			// sentinel must fail it and the retry must succeed.
			{Path: PathSnapshot, Kind: FaultTruncate, Every: 1, Times: 1, Bytes: 64},
		}},
		{"corrupt-snapshot-bootstrap", []FaultRule{
			{Path: PathSnapshot, Kind: FaultCorrupt, Every: 1, Times: 1, Bytes: 100},
		}},
		{"everything-at-once", []FaultRule{
			{Path: PathSnapshot, Kind: FaultTruncate, Every: 1, Times: 1, Bytes: 64},
			{Path: PathWAL, Kind: FaultError, Every: 5},
			{Path: PathWAL, Kind: FaultTruncate, Every: 4, Bytes: 150},
			{Path: PathWAL, Kind: FaultCorrupt, Every: 3, Bytes: 12},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := dataset.Uniform(500, 23)
			st := newLeaderStore(t, data)
			srv := leaderServer(t, NewLeader(st, nil, nil))
			ft := NewFaultTransport(nil, 42, tc.rules...)

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			f, err := Open(ctx, followerOpts(t, srv.URL, ft))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			// First burst lands while the link is (about to be) failing.
			applyWrites(t, st, data, 2_000_000, 30)

			// The tail never stops polling (expired long polls count as
			// matching requests), so every Every-gated rule fires if we
			// wait. Require at least one real injection before the second
			// burst — otherwise the case proves nothing.
			deadline := time.Now().Add(20 * time.Second)
			for ft.Injected() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("no faults were injected: the case proved nothing")
				}
				time.Sleep(5 * time.Millisecond)
			}

			// Second burst ships through the now-demonstrably-faulty link.
			applyWrites(t, st, data, 2_100_000, 30)
			waitCaughtUp(t, f, st, 20*time.Second)
			requireSameState(t, st, f.Store())
		})
	}
}

// TestFollowerRebootstrapAfterTruncatedHistory parks a follower, advances
// the leader far enough that generation GC discards the follower's resume
// point, and requires the reopened follower to take the 410 as a clean
// re-bootstrap: state swapped via OnStateSwap, final state identical.
func TestFollowerRebootstrapAfterTruncatedHistory(t *testing.T) {
	data := dataset.Uniform(800, 7)
	st := newLeaderStore(t, data)
	srv := leaderServer(t, NewLeader(st, nil, nil))
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)

	opts := followerOpts(t, srv.URL, nil)
	opts.Metrics = m
	f1, err := Open(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	applyWrites(t, st, data, 3_000_000, 6)
	waitCaughtUp(t, f1, st, 10*time.Second)
	resumeSeq := f1.Store().NextSeq()
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}

	// Two checkpoints with the default retention (2) garbage-collect the
	// bootstrap generation — and with it every record before the first
	// rotation, including the parked follower's resume point.
	leaderDir := st.Dir()
	applyWrites(t, st, data, 3_100_000, 10)
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyWrites(t, st, data, 3_200_000, 10)
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(durable.WALPath(leaderDir, 1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("generation 1 WAL still present after GC (err %v)", err)
	}
	if _, _, _, release, err := st.AcquireWAL(resumeSeq); err == nil {
		release()
		t.Fatalf("seq %d still servable: the test never forced a re-bootstrap", resumeSeq)
	} else if !errors.Is(err, durable.ErrSeqTruncated) {
		t.Fatalf("AcquireWAL(%d) = %v, want ErrSeqTruncated", resumeSeq, err)
	}

	var swapped atomic.Int64
	opts.OnStateSwap = func(ns *durable.Store) {
		if ns == nil {
			t.Error("OnStateSwap delivered a nil store")
		}
		swapped.Add(1)
	}
	f2, err := Open(context.Background(), opts) // resumes stale local state
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()

	waitCaughtUp(t, f2, st, 20*time.Second)
	requireSameState(t, st, f2.Store())
	if swapped.Load() == 0 {
		t.Fatal("OnStateSwap never fired: follower did not re-bootstrap")
	}
	if got := m.Bootstraps.Value(); got < 2 {
		t.Fatalf("bootstraps counter %d, want >= 2 (initial + recovery)", got)
	}
}

func TestFollowerPromote(t *testing.T) {
	data := dataset.Uniform(600, 13)
	st := newLeaderStore(t, data)
	srv := leaderServer(t, NewLeader(st, nil, nil))

	f, err := Open(context.Background(), followerOpts(t, srv.URL, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	applyWrites(t, st, data, 4_000_000, 9)
	waitCaughtUp(t, f, st, 10*time.Second)

	seq, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if !f.Writable() {
		t.Fatal("follower not writable after Promote")
	}
	again, err := f.Promote()
	if err != nil || again != seq {
		t.Fatalf("second Promote = (%d, %v), want idempotent (%d, nil)", again, err, seq)
	}

	// Promotion stopped the tail synchronously: leader writes no longer
	// arrive, and the promoted store takes writes of its own.
	before := f.Store().NextSeq()
	applyWrites(t, st, data, 4_100_000, 3)
	if got := f.Store().NextSeq(); got != before {
		t.Fatalf("promoted follower still tailing: next_seq moved %d -> %d", before, got)
	}
	obj := geom.Object{Box: data[0].Box, ID: 4_200_000}
	if err := f.Store().Insert(obj); err != nil {
		t.Fatalf("insert on promoted follower: %v", err)
	}
	ids := f.Store().Index().Query(obj.Box, nil)
	found := false
	for _, id := range ids {
		found = found || id == obj.ID
	}
	if !found {
		t.Fatal("post-promotion write not readable")
	}
}

// TestServeWALStatusCodes exercises the wire contract directly: 400 on a
// malformed cursor, 409 ahead of the log, 204 on an expired empty poll,
// and a 200 whose frames decode to exactly the leader's record count.
func TestServeWALStatusCodes(t *testing.T) {
	data := dataset.Uniform(300, 3)
	st := newLeaderStore(t, data)
	srv := leaderServer(t, NewLeader(st, nil, nil))
	applyWrites(t, st, data, 5_000_000, 5)
	next := st.NextSeq()

	get := func(url string) *http.Response {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := get(srv.URL + PathWAL); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing ?from: %s, want 400", resp.Status)
	}
	if resp := get(srv.URL + PathWAL + "?from=0"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?from=0: %s, want 400", resp.Status)
	}
	resp := get(srv.URL + PathWAL + "?from=" + itoa(next+10))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("?from ahead of log: %s, want 409", resp.Status)
	}
	resp = get(srv.URL + PathWAL + "?from=" + itoa(next) + "&wait=0")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("empty tail with wait=0: %s, want 204", resp.Status)
	}
	if got := resp.Header.Get(HdrNextSeq); got != itoa(next) {
		t.Fatalf("204 %s header %q, want %d", HdrNextSeq, got, next)
	}

	resp = get(srv.URL + PathWAL + "?from=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full history fetch: %s, want 200", resp.Status)
	}
	dec := wal.NewStreamDecoder(resp.Body)
	var rec wal.Record
	var n uint64
	for {
		ok, err := dec.Next(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if want := next - 1; n != want {
		t.Fatalf("streamed %d records, want %d", n, want)
	}
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }

// TestArchiveRoundTrip proves the snapshot framing detects every way a
// stream can lie: truncation anywhere, a flipped payload bit, a missing
// sentinel, and path-escaping file names.
func TestArchiveRoundTrip(t *testing.T) {
	src := t.TempDir()
	files := map[string][]byte{
		"CURRENT":       []byte("snap-0000001\n"),
		"shard-0.col":   bytes.Repeat([]byte{0xAB, 0x00, 0x3C}, 400),
		"REPLMETA.json": []byte(`{"version":1,"start_seq":1}` + "\n"),
		"empty":         {},
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(src, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteArchive(&buf, src); err != nil {
		t.Fatal(err)
	}

	dst := t.TempDir()
	if err := ReadArchive(faultfs.OS{}, bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	for name, want := range files {
		got, err := os.ReadFile(filepath.Join(dst, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: round-trip mismatch", name)
		}
	}

	// Every proper prefix is a torn stream: the sentinel can never be
	// mistaken for present.
	for _, cut := range []int{0, 1, 4, 17, buf.Len() / 2, buf.Len() - 1} {
		err := ReadArchive(faultfs.OS{}, bytes.NewReader(buf.Bytes()[:cut]), t.TempDir())
		if !errors.Is(err, ErrTornStream) {
			t.Fatalf("cut at %d: err %v, want ErrTornStream", cut, err)
		}
	}

	// A flipped payload bit fails the file CRC.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[len(bad)/2] ^= 0x20
	if err := ReadArchive(faultfs.OS{}, bytes.NewReader(bad), t.TempDir()); !errors.Is(err, ErrTornStream) {
		t.Fatalf("corrupt archive: err %v, want ErrTornStream", err)
	}
}

// TestArchiveRoundTripLargeFile: a file several times the reader's
// initial buffer reads back byte for byte, the way a real shard snapshot
// must when a follower bootstraps from it.
func TestArchiveRoundTripLargeFile(t *testing.T) {
	src := t.TempDir()
	want := make([]byte, 3*256<<10+1)
	for i := range want {
		want[i] = byte(i*7 + i>>9) // no zero runs: a short read cannot pass
	}
	if err := os.WriteFile(filepath.Join(src, "shard-000.snap"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteArchive(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	if err := ReadArchive(faultfs.OS{}, bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dst, "shard-000.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("round-trip mismatch: %d bytes back of %d", len(got), len(want))
	}
}

func TestArchiveRejectsUnsafeNames(t *testing.T) {
	for _, name := range []string{"../evil", "a/b", `a\b`, ".", ".."} {
		var buf bytes.Buffer
		var hdr [16]byte
		putU32(hdr[:], uint32(len(name)))
		buf.Write(hdr[:4])
		io.WriteString(&buf, name)
		putU32(hdr[:], 0) // size 0
		putU32(hdr[4:], 0)
		putU32(hdr[8:], 0) // crc of empty payload (unchecked before the name check)
		buf.Write(hdr[:12])
		if err := ReadArchive(faultfs.OS{}, bytes.NewReader(buf.Bytes()), t.TempDir()); !errors.Is(err, ErrTornStream) {
			t.Fatalf("name %q: err %v, want ErrTornStream", name, err)
		}
	}
}

// TestArchiveBoundsClaimedSize: a file header is only a claim until its
// bytes arrive. A 2 GiB claim followed by a few bytes must be a torn stream
// that allocates about what arrived, not what was claimed.
func TestArchiveBoundsClaimedSize(t *testing.T) {
	var buf bytes.Buffer
	var hdr [16]byte
	putU32(hdr[:], 1)
	buf.Write(hdr[:4])
	buf.WriteString("x")
	putU32(hdr[0:], 1<<31) // size 2 GiB, the cap: a little-endian uint64
	putU32(hdr[4:], 0)
	putU32(hdr[8:], 0)
	buf.Write(hdr[:12])
	buf.WriteString("abc")
	dir := t.TempDir()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := ReadArchive(faultfs.OS{}, bytes.NewReader(buf.Bytes()), dir)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTornStream) {
		t.Fatalf("err %v, want ErrTornStream", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("a 2 GiB claim over 3 bytes allocated %d bytes", d)
	}
}

// FuzzReadArchive: no input panics the reader, and every archive
// WriteArchive produces reads back file for file.
func FuzzReadArchive(f *testing.F) {
	f.Add([]byte("snap-0000001\n"), []byte{}, []byte{0})
	f.Add(bytes.Repeat([]byte{0xAB}, 300), []byte("{}"), []byte{1, 0, 0, 0, 'x'})
	f.Fuzz(func(t *testing.T, a, b, raw []byte) {
		// Arbitrary bytes: any outcome but a panic.
		_ = ReadArchive(faultfs.OS{}, bytes.NewReader(raw), t.TempDir())

		src := t.TempDir()
		files := map[string][]byte{"CURRENT": a, "shard-000.snap": b}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(src, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var arc bytes.Buffer
		if err := WriteArchive(&arc, src); err != nil {
			t.Fatal(err)
		}
		dst := t.TempDir()
		if err := ReadArchive(faultfs.OS{}, bytes.NewReader(arc.Bytes()), dst); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != len(files) {
			t.Fatalf("read back %d files, want %d", len(ents), len(files))
		}
		for name, want := range files {
			got, err := os.ReadFile(filepath.Join(dst, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: round-trip mismatch", name)
			}
		}
	})
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// TestFollowerBootstrapCrashPointSweep crashes one follower bootstrap at
// every file-system step it takes (wipe, archive install, rename, CURRENT,
// the store's own open) and inspects the directory with the real file
// system afterwards: either no CURRENT exists — and the next attempt wipes
// the debris and succeeds — or CURRENT names a complete generation that
// opens to exactly the leader's state. Never a half-installed one.
func TestFollowerBootstrapCrashPointSweep(t *testing.T) {
	data := dataset.Uniform(300, 31)
	st := newLeaderStore(t, data)
	applyWrites(t, st, data, 4_000_000, 12)
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv := leaderServer(t, NewLeader(st, nil, nil))

	// bootstrap runs one bootstrapOnce into dir over fsys, with no tail
	// loop: the steps counted are the bootstrap's alone.
	bootstrap := func(dir string, fsys faultfs.FS) (*Follower, error) {
		opts := followerOpts(t, srv.URL, nil)
		opts.Dir = dir
		opts.Store.FS = fsys
		o := opts.withDefaults()
		f := &Follower{opts: o, logger: o.Logger, client: &http.Client{}}
		return f, f.bootstrapOnce(context.Background())
	}
	requireLeaderState := func(k int64, fs *durable.Store) {
		t.Helper()
		if ln, fn := st.NextSeq(), fs.NextSeq(); ln != fn {
			t.Fatalf("crash step %d: follower next_seq %d, leader %d", k, fn, ln)
		}
		requireSameState(t, st, fs)
		if err := fs.Close(); err != nil {
			t.Fatalf("crash step %d: close: %v", k, err)
		}
	}

	counter := faultfs.New(nil, faultfs.Config{})
	f, err := bootstrap(filepath.Join(t.TempDir(), "follower"), counter)
	if err != nil {
		t.Fatalf("fault-free bootstrap: %v", err)
	}
	steps := counter.Steps() // before Close below adds its checkpoint's
	requireLeaderState(0, f.Store())
	if steps < 10 {
		t.Fatalf("suspiciously few bootstrap write sites counted: %d", steps)
	}

	installed, retried := 0, 0
	for k := int64(1); k <= steps; k++ {
		dir := filepath.Join(t.TempDir(), "follower")
		ff := faultfs.New(nil, faultfs.Config{CrashStep: k})
		if f, err := bootstrap(dir, ff); err == nil {
			f.Store().Close()
			t.Fatalf("crash step %d: bootstrap succeeded through a crash", k)
		}
		has, err := durable.HasState(faultfs.OS{}, dir)
		if err != nil {
			t.Fatalf("crash step %d: reading CURRENT: %v", k, err)
		}
		if has {
			// CURRENT is the last thing installed: what it names must be
			// complete.
			installed++
			opts := followerOpts(t, srv.URL, nil)
			reopened, err := durable.Open(dir, opts.Store)
			if err != nil {
				t.Fatalf("crash step %d: CURRENT present but state does not open: %v", k, err)
			}
			requireLeaderState(k, reopened)
			continue
		}
		retried++
		f, err := bootstrap(dir, faultfs.OS{})
		if err != nil {
			t.Fatalf("crash step %d: retry over the debris failed: %v", k, err)
		}
		requireLeaderState(k, f.Store())
	}
	if installed == 0 || retried == 0 {
		t.Fatalf("sweep of %d steps saw %d installed and %d retried outcomes; want both", steps, installed, retried)
	}
	t.Logf("swept %d crash points: %d left no CURRENT, %d left a complete generation", steps, retried, installed)
}
