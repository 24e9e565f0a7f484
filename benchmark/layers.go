package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/geom"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// The per-layer probes. Real nesting exists only at the two seams of
// wrap.go; everywhere else a layer is measured from outside, by replaying
// the same deterministic operations against each layer's public entry point
// on identically prepared state, and a layer's self time is the difference
// between it and the layer below. All probes run on the serve_* fixture —
// the uniform dataset, two shards, the zipf pool — so adjacent differences
// compare like with like; the crack-phase counts come from crack_stream's
// own stream. Every traced run executes the whole suite, whatever its
// workload, so every per-layer metric is always reported.
type layerSuite struct {
	scratch string
	in      *inputs // serve_read's inputs
	data    []geom.Object
	out     map[string]float64
}

// probeOps is how many operations a latency probe times. Medians over a
// couple of thousand calls are steady to a few percent, and the whole suite
// stays within a minute.
const probeOps = 2048

// timeEach runs f n times and returns each call's duration.
func timeEach(n int, f func(i int)) []int64 {
	ns := make([]int64, n)
	for i := range ns {
		t0 := time.Now()
		f(i)
		ns[i] = int64(time.Since(t0))
	}
	return ns
}

func p50us(ns []int64) float64 { return summarise(ns).P50us }

func medianOf(n int, f func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// colstore: the partition and scan kernels on a bare table.
func (s *layerSuite) colstore() {
	base := colstore.FromObjects(s.data)
	n := base.Len()
	s.out["colstore.partition_ns_per_row"] = medianOf(5, func() float64 {
		t := base.Clone()
		t0 := time.Now()
		t.Partition(0, n, 0, dataset.UniverseSide/2, colstore.KeyLower)
		return float64(time.Since(t0)) / float64(n)
	})

	// Scans run over 4096-row ranges, the size of a leaf-level sweep, with
	// one of the pool's boxes; every row of the table is visited once.
	const rng = 4096
	q := s.in.pool[0]
	var out []int32
	sweep := func(scan func(lo, hi int)) float64 {
		t0 := time.Now()
		for lo := 0; lo+rng <= n; lo += rng {
			scan(lo, lo+rng)
		}
		return float64(time.Since(t0)) / float64(n/rng*rng)
	}
	s.out["colstore.scan_ns_per_row"] = medianOf(5, func() float64 {
		return sweep(func(lo, hi int) { out = base.ScanIntersect(lo, hi, q, out[:0]) })
	})
	dead := make(map[int32]struct{}, n/100)
	for id := 0; id < n; id += 100 {
		dead[int32(id)] = struct{}{}
	}
	s.out["colstore.scan_visible_ns_per_row"] = medianOf(5, func() float64 {
		return sweep(func(lo, hi int) { out = base.ScanIntersectVisible(lo, hi, q, dead, out[:0]) })
	})
}

// converge answers the pool until the crack counter stands still.
func converge(query func(q geom.Box), cracks func() int, pool []geom.Box) {
	for pass, last := 0, -1; pass < maxWarmPasses; pass++ {
		for _, q := range pool {
			query(q)
		}
		if now := cracks(); now == last {
			return
		} else {
			last = now
		}
	}
}

// victims picks n base objects that lie in converged regions: objects the
// pool's queries return.
func (s *layerSuite) victims(ix *core.Index, n int) []geom.Object {
	var ids []int32
	seen := make(map[int32]bool)
	var objs []geom.Object
	for _, q := range s.in.pool {
		ids = ix.Query(q, ids[:0])
		for _, id := range ids {
			if !seen[id] && int(id) < len(s.data) {
				seen[id] = true
				objs = append(objs, s.data[id])
				if len(objs) == n {
					return objs
				}
			}
		}
	}
	return objs
}

// core: one QUASII index over the whole fixture, converged, then updated.
func (s *layerSuite) core() error {
	pool := s.in.pool
	ix := core.New(dataset.Clone(s.data), core.Config{})
	var out []int32
	converge(func(q geom.Box) { out = ix.Query(q, out[:0]) }, func() int { return ix.Stats().Cracks }, pool)

	shared := func() ([]int64, int) {
		misses := 0
		ns := timeEach(len(pool), func(i int) {
			var ok bool
			if out, ok = ix.QueryShared(pool[i], out[:0]); !ok {
				misses++
			}
		})
		return ns, misses
	}
	ns, misses := shared()
	if misses > 0 {
		return fmt.Errorf("core probe: %d of %d converged queries left the shared path", misses, len(pool))
	}
	s.out["core.query_converged_us"] = p50us(ns)

	s.out["core.pin_release_ns"] = summarise(timeEach(probeOps, func(int) { ix.PinVersion().Release() })).P50us * 1e3

	// 2048 pending inserts, then the same queries again.
	s.out["core.insert_us"] = p50us(timeEach(probeOps, func(i int) { ix.AppendVersioned(s.in.writeObject(i)) }))
	ns, _ = shared()
	s.out["core.pending_query_us"] = p50us(ns)

	// Deletes, timed once 2048 tombstones are live: each delete copies the
	// tombstone set, so its cost is a function of how many there are.
	vs := s.victims(ix, probeOps+probeOps/4)
	if len(vs) < 64 {
		return fmt.Errorf("core probe: only %d deletable objects in converged regions", len(vs))
	}
	live := len(vs) * 4 / 5 // 2048 at full scale; the smoke scale has fewer candidates
	del := func(o geom.Object) {
		if _, ok := ix.DeleteShared(o.ID, o.Box); !ok {
			ix.Delete(o.ID, o.Box)
		}
	}
	for _, o := range vs[:live] {
		del(o)
	}
	s.out["core.delete_us"] = p50us(timeEach(len(vs)-live, func(i int) { del(vs[live+i]) }))

	// Flush of 4096 pending and the tombstones above: the lanes are
	// compacted and the hierarchy restarts from one unrefined slice, so the
	// bill is the Flush itself plus answering the same queries again.
	for i := ix.Pending(); i < 2*probeOps; i++ {
		ix.AppendVersioned(s.in.writeObject(100000 + i))
	}
	t0 := time.Now()
	ix.Flush()
	s.out["core.flush_ms"] = float64(time.Since(t0)) / 1e6
	t0 = time.Now()
	for _, q := range pool {
		out = ix.Query(q, out[:0])
	}
	s.out["core.reconverge_ms"] = float64(time.Since(t0)) / 1e6
	return nil
}

// crack replays crack_stream's cold stream once on one goroutine for the
// exact work counts of the cracking phase.
func (s *layerSuite) crack(spec workloadSpec, seed int64) error {
	in := &inputs{spec: spec, seed: seed}
	pool, err := queryPool(spec, seed)
	if err != nil {
		return err
	}
	ix := core.New(in.generate(), core.Config{})
	var out []int32
	ns := timeEach(len(pool), func(i int) { out = ix.Query(pool[i], out[:0]) })
	var phase int64
	for _, v := range ns[:min(1000, len(ns))] {
		phase += v
	}
	st := ix.Stats()
	s.out["core.crack_phase_ms"] = float64(phase) / 1e6
	s.out["core.cracks"] = float64(st.Cracks)
	s.out["core.cracked_objects"] = float64(st.CrackedObjects)
	s.out["core.slices_created"] = float64(st.SlicesCreated)
	s.out["core.objects_tested"] = float64(st.ObjectsTested)
	s.out["core.result_objects"] = float64(st.ResultObjects)
	s.out["core.tested_per_result"] = float64(st.ObjectsTested) / math.Max(float64(st.ResultObjects), 1)
	return nil
}

// qpsFor runs g closed-loop goroutines for d and returns queries per second.
func qpsFor(ix *shard.Index, pool []geom.Box, g int, d time.Duration) float64 {
	counts := make([]int, g)
	deadline := time.Now().Add(d)
	t0 := time.Now()
	parallel(g, func(c int) {
		var out []int32
		for qi := c * len(pool) / g; time.Now().Before(deadline); qi = (qi + 1) % len(pool) {
			out = ix.Query(pool[qi], out[:0])
			counts[c]++
		}
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	return float64(total) / time.Since(t0).Seconds()
}

// shard: the sharded index over the same fixture.
func (s *layerSuite) shard() error {
	pool := s.in.pool
	cfg := shard.Config{Shards: shardCount(s.in.spec)}
	ix := shard.New(dataset.Clone(s.data), cfg)
	var out []int32
	converge(func(q geom.Box) { out = ix.Query(q, out[:0]) }, func() int { return ix.Stats().Core.Cracks }, pool)

	before := ix.Stats().Core
	s.out["shard.query_us"] = p50us(timeEach(len(pool), func(i int) { out = ix.Query(pool[i], out[:0]) }))
	after := ix.Stats().Core
	sharedQ := float64(after.SharedQueries - before.SharedQueries)
	s.out["core.shared_ratio"] = sharedQ / (sharedQ + float64(after.Queries-before.Queries))
	s.out["shard.fanout_self_us"] = s.out["shard.query_us"] - s.out["core.query_converged_us"]

	nb := len(pool) / batchSize
	s.out["shard.batch_us_per_query"] = p50us(timeEach(nb, func(b int) {
		shard.RecycleResults(ix.QueryBatch(pool[b*batchSize : (b+1)*batchSize]))
	})) / batchSize

	one := qpsFor(ix, pool, 1, 300*time.Millisecond)
	s.out["shard.scaling"] = qpsFor(ix, pool, runtime.NumCPU(), 300*time.Millisecond) / one

	var werr error
	s.out["shard.insert_us"] = p50us(timeEach(probeOps, func(i int) {
		if err := ix.Insert(s.in.writeObject(i)); err != nil {
			werr = err
		}
	}))
	s.out["shard.delete_us"] = p50us(timeEach(probeOps, func(i int) {
		o := s.in.writeObject(i)
		if found, err := ix.Delete(o.ID, o.Box); err != nil || !found {
			werr = fmt.Errorf("shard probe: delete of %d: found=%v err=%v", o.ID, found, err)
		}
	}))
	for i := 0; i < 2*probeOps; i++ {
		if err := ix.Insert(s.in.writeObject(100000 + i)); err != nil {
			werr = err
		}
	}
	t0 := time.Now()
	if err := ix.Flush(); err != nil {
		werr = err
	}
	s.out["shard.flush_ms"] = float64(time.Since(t0)) / 1e6
	if werr != nil {
		return werr
	}

	dir := filepath.Join(s.scratch, "layer-shard.snap")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t0 = time.Now()
	if err := ix.Snapshot(dir); err != nil {
		return err
	}
	s.out["shard.snapshot_ms"] = float64(time.Since(t0)) / 1e6
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := shard.Restore(dir, cfg); err != nil {
		return err
	}
	s.out["shard.restore_mb_s"] = float64(size) / (1 << 20) / time.Since(t0).Seconds()
	return nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// wal: single-object appends under each fsync policy, through the timing
// file system so the fsync's own share is a span.
func (s *layerSuite) wal() error {
	for _, p := range []struct {
		name   string
		policy wal.SyncPolicy
		n      int
	}{{"always", wal.SyncAlways, 512}, {"interval", wal.SyncInterval, 8 * probeOps}, {"never", wal.SyncNever, 8 * probeOps}} {
		tr := newTracer()
		path := filepath.Join(s.scratch, "layer-"+p.name+".wal")
		log, err := wal.CreateFS(newTimingFS(tr), path, p.policy)
		if err != nil {
			return err
		}
		var aerr error
		ns := timeEach(p.n, func(i int) {
			if err := log.AppendInsert([]geom.Object{s.in.writeObject(i)}); err != nil {
				aerr = err
			}
		})
		size := log.Size()
		if err := log.Close(); err != nil || aerr != nil {
			return fmt.Errorf("wal probe (%s): append %v, close %v", p.name, aerr, err)
		}
		s.out["wal.append_us."+p.name] = p50us(ns)
		switch p.policy {
		case wal.SyncAlways:
			s.out["wal.fsync_us"] = p50us(layerTimes(tr.spans)["fs.sync"].totals)
			s.out["wal.bytes_per_record"] = float64(size) / float64(p.n)
		case wal.SyncNever:
			t0 := time.Now()
			n, err := wal.Replay(path, func(*wal.Record) error { return nil })
			if err != nil || n != p.n {
				return fmt.Errorf("wal probe: replayed %d of %d records: %v", n, p.n, err)
			}
			s.out["wal.replay_records_per_s"] = float64(n) / time.Since(t0).Seconds()
		}
	}
	return nil
}

// durableStore opens a store over the fixture on the timing file system.
func (s *layerSuite) durableStore(dir string, fs *timingFS) (*durable.Store, error) {
	return durable.Open(dir, durable.Options{
		Shard:     shard.Config{Shards: shardCount(s.in.spec)},
		Bootstrap: func() []geom.Object { return dataset.Clone(s.data) },
		Fsync:     durable.FsyncAlways,
		FS:        fs,
	})
}

// objectBytes is what one object is to a user: six coordinates and an ID.
const objectBytes = 2*geom.Dims*8 + 4

// durable: the store's own entry points, with its file traffic as child
// spans.
func (s *layerSuite) durable() error {
	tr := newTracer()
	fs := newTimingFS(tr)
	dir := filepath.Join(s.scratch, "layer-durable")
	store, err := s.durableStore(dir, fs)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	store.Instrument(reg)
	ts := &tracedStore{store: store, tr: tr}
	w0, y0, b0 := fs.writes.Load(), fs.syncs.Load(), fs.bytes.Load()
	var werr error
	s.out["durable.insert_us"] = p50us(timeEach(mixedCheckpointEvery/2, func(i int) {
		if err := ts.Insert(s.in.writeObject(i)); err != nil {
			werr = err
		}
	}))
	s.out["durable.delete_us"] = p50us(timeEach(mixedCheckpointEvery/2, func(i int) {
		o := s.in.writeObject(i)
		if found, err := ts.Delete(o.ID, o.Box); err != nil || !found {
			werr = fmt.Errorf("durable probe: delete of %d: found=%v err=%v", o.ID, found, err)
		}
	}))
	if werr != nil {
		return werr
	}
	acks := float64(mixedCheckpointEvery)
	s.out["durable.fs_writes_per_ack"] = float64(fs.writes.Load()-w0) / acks
	s.out["durable.fs_syncs_per_ack"] = float64(fs.syncs.Load()-y0) / acks
	s.out["durable.self_us"] = p50us(layerTimes(tr.spans)["durable.insert"].selfs) - s.out["shard.insert_us"]

	// One checkpoint closes the cycle serve_mixed runs: mixedCheckpointEvery
	// updates, then a snapshot of everything.
	t0 := time.Now()
	if _, err := ts.Checkpoint(); err != nil {
		return err
	}
	s.out["durable.checkpoint_ms"] = float64(time.Since(t0)) / 1e6
	// The pause is the store's own series: how long updates waited for the
	// checkpoint's cuts.
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		return err
	}
	c, err := countersFrom(text.String())
	if err != nil {
		return err
	}
	s.out["durable.checkpoint_pause_us"] = c["durable.ckpt_pause_sum_s"] / math.Max(c["durable.ckpt_pause_count"], 1) * 1e6
	// Half the acks were inserts carrying an object; deletes carry an ID and
	// a hint box, the same bytes.
	s.out["durable.disk_bytes_per_user_byte"] = float64(fs.bytes.Load()-b0) / (acks * objectBytes)

	// The crash: the store is abandoned without Close, then opened again.
	for i := 0; i < mixedCheckpointEvery/2; i++ {
		if err := store.Insert(s.in.writeObject(200000 + i)); err != nil {
			return err
		}
	}
	t0 = time.Now()
	again, err := s.durableStore(dir, newTimingFS(nil))
	if err != nil {
		return fmt.Errorf("durable probe: reopening: %w", err)
	}
	s.out["durable.open_s"] = time.Since(t0).Seconds()
	return again.Close()
}

// server: the handler entered directly, on the twin of serve_read and of
// serve_mixed. What the socket adds is read off the process-level runs (see
// runTraced). Returns the twins' operation counts for the correctness total.
func (s *layerSuite) server() (attempted, failed int64, err error) {
	nproc := runtime.NumCPU()
	pool := s.in.pool

	// clientsP50 runs n closed-loop clients, ops queries each, and returns
	// the median latency.
	clientsP50 := func(tgt target, n, ops int) (float64, error) {
		lat := make([][]int64, n)
		errs := make([]error, n)
		parallel(n, func(c int) {
			var out []int32
			lat[c] = timeEach(ops, func(i int) {
				qi := (c*len(pool)/n + i) % len(pool)
				var err error
				if out, err = tgt.Query(c, qi, out[:0]); err != nil {
					errs[c] = err
				} else if digest(out, s.in.writeBase) != s.in.want[qi] {
					errs[c] = fmt.Errorf("server probe: wrong answer to query %d", qi)
				}
			})
		})
		var all []int64
		for c := range lat {
			if errs[c] != nil {
				return 0, errs[c]
			}
			all = append(all, lat[c]...)
		}
		attempted += int64(len(all))
		return p50us(all), nil
	}
	warm := func(tgt target) error {
		j := newJourney(s.in, tgt, 1, 0, nil)
		for pass := 0; pass < 2; pass++ {
			j.coldPass(0)
		}
		a, f := j.ops()
		attempted += a
		failed += f
		return j.firstErr
	}

	// Reads: default window at nproc clients (as serve_read runs), then the
	// same handler with coalescing off, which splits waiting from work.
	read := newHandlerTarget(s.in, s.scratch, nproc, nil)
	if err := read.Setup(); err != nil {
		return 0, 0, err
	}
	if err := warm(read); err != nil {
		return 0, 0, err
	}
	handler, err := clientsP50(read, nproc, 256)
	if err != nil {
		return 0, 0, err
	}
	c0, err := read.Counters()
	if err != nil {
		return 0, 0, err
	}
	s.out["server.query_handler_us"] = handler
	if b := c0["server.batches"]; b > 0 {
		s.out["server.batch_occupancy"] = c0["server.batched_queries"] / b
	}
	s.out["server.rejected_ratio"] = c0["server.rejected"] / math.Max(c0["server.http_requests"], 1)

	nowin := newHandlerTarget(s.in, s.scratch, 1, nil)
	nowin.window = -1
	if err := nowin.Setup(); err != nil {
		return 0, 0, err
	}
	if err := warm(nowin); err != nil {
		return 0, 0, err
	}
	m0 := mallocs()
	bytesOut := 0
	ns := timeEach(len(pool), func(i int) {
		if _, err := nowin.Query(0, i, nil); err != nil {
			failed++
		}
		bytesOut += nowin.clients[0].buf.Len()
	})
	attempted += int64(len(ns))
	s.out["server.allocs_per_query"] = float64(mallocs()-m0) / float64(len(ns))
	s.out["server.bytes_per_response"] = float64(bytesOut) / float64(len(ns))
	s.out["server.query_nowindow_us"] = p50us(ns)
	s.out["server.window_wait_us"] = handler - s.out["server.query_nowindow_us"]
	s.out["server.query_self_us"] = s.out["server.query_nowindow_us"] - s.out["shard.query_us"]
	s.out["server.batch_handler_us_per_query"] = p50us(timeEach(len(pool)/batchSize, func(b int) {
		if _, err := nowin.Batch(0, b*batchSize); err != nil {
			failed++
		}
	})) / batchSize
	attempted += int64(len(pool))

	// Writes: the benchmark's own write stream through the handler, first
	// memory-only (what the server adds to shard.insert_us, and the base
	// line the socket's cost is read against), then on the durable twin.
	writeP50 := func(tgt target, in *inputs) (float64, error) {
		j := newJourney(in, tgt, 1, 0, nil)
		j.writePhase(300*time.Millisecond, &writeStream{})
		a, f := j.ops()
		attempted += a
		failed += f
		return summarise(j.writeNs).P50us, j.firstErr
	}
	plain := newHandlerTarget(s.in, s.scratch, 2, nil)
	if err := plain.Setup(); err != nil {
		return 0, 0, err
	}
	if s.out["server.update_handler_us"], err = writeP50(plain, s.in); err != nil {
		return 0, 0, err
	}
	min := *s.in
	min.spec.Durable = true
	write := newHandlerTarget(&min, s.scratch, 2, nil)
	if err := write.Setup(); err != nil {
		return 0, 0, err
	}
	if s.out["server.insert_handler_us"], err = writeP50(write, &min); err != nil {
		return 0, 0, err
	}
	s.out["server.insert_self_us"] = s.out["server.insert_handler_us"] - s.out["durable.insert_us"]
	return attempted, failed, write.Close()
}

// loopback serves h on a fresh loopback port until stop is called.
func loopback(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Close
		close(done)
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = srv.Close() // the probe is over; nothing in flight matters
		<-done
	}, nil
}

// repl: an in-process leader behind a loopback listener and a follower fed
// the serve_mixed write stream.
func (s *layerSuite) repl() error {
	leader, err := s.durableStore(filepath.Join(s.scratch, "layer-leader"), newTimingFS(nil))
	if err != nil {
		return err
	}
	defer leader.Close()
	l := repl.NewLeader(leader, nil, nil)
	mux := http.NewServeMux()
	mux.HandleFunc(repl.PathSnapshot, l.ServeSnapshot)
	mux.HandleFunc(repl.PathWAL, l.ServeWAL)
	base, stop, err := loopback(mux)
	if err != nil {
		return err
	}
	defer stop()

	t0 := time.Now()
	f, err := repl.Open(context.Background(), repl.FollowerOptions{
		LeaderURL: base,
		Dir:       filepath.Join(s.scratch, "layer-follower"),
		Store:     durable.Options{Shard: shard.Config{Shards: shardCount(s.in.spec)}, Fsync: durable.FsyncAlways},
	})
	if err != nil {
		return fmt.Errorf("repl probe: opening follower: %w", err)
	}
	defer f.Close()
	s.out["repl.bootstrap_s"] = time.Since(t0).Seconds()

	// caughtUp waits until the follower has applied everything the leader
	// has logged.
	caughtUp := func() error {
		deadline := time.Now().Add(30 * time.Second)
		for f.Store().NextSeq() < leader.NextSeq() {
			if time.Now().After(deadline) {
				return fmt.Errorf("repl probe: follower stuck at %d of %d", f.Store().NextSeq(), leader.NextSeq())
			}
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	}
	if err := caughtUp(); err != nil {
		return err
	}

	// Ship lag: one acked write at a time, ack until applied on the follower.
	var ws writeStream
	lag := make([]int64, 0, 256)
	write := func() error {
		i, del := ws.next()
		o := s.in.writeObject(i)
		var err error
		if del {
			_, err = leader.Delete(o.ID, o.Box)
		} else {
			err = leader.Insert(o)
		}
		ws.done(del)
		return err
	}
	for i := 0; i < cap(lag); i++ {
		if err := write(); err != nil {
			return err
		}
		t0 := time.Now()
		if err := caughtUp(); err != nil {
			return err
		}
		lag = append(lag, int64(time.Since(t0)))
	}
	s.out["repl.ship_lag_ms_p50"] = p50us(lag) / 1e3

	// Apply rate: a burst of the write stream, first ack until all applied.
	const burst = 2 * probeOps
	t0 = time.Now()
	for i := 0; i < burst; i++ {
		if err := write(); err != nil {
			return err
		}
	}
	if err := caughtUp(); err != nil {
		return err
	}
	s.out["repl.apply_records_per_s"] = burst / time.Since(t0).Seconds()
	return nil
}

// run executes every probe in stack order.
func (s *layerSuite) run(crack workloadSpec, seed int64) (attempted, failed int64, err error) {
	s.colstore()
	for _, probe := range []func() error{
		s.core,
		func() error { return s.crack(crack, seed) },
		s.shard,
		s.wal,
		s.durable,
	} {
		if err := probe(); err != nil {
			return 0, 0, err
		}
	}
	attempted, failed, err = s.server()
	if err != nil {
		return 0, 0, err
	}
	return attempted, failed, s.repl()
}
