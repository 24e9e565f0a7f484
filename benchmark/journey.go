package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
)

// journey walks one workload through its rounds. A round is the same five
// phases at every depth of the stack:
//
//	cold    build from nothing, answer query #1, answer the rest of the pool
//	        once (and, except on crack_stream, again until the crack counter
//	        stands still — that warm-up is set-up, not measurement)
//	read    closed-loop singleton queries, every answer checked
//	batch   closed-loop batches of 64
//	write   one writer alternating insert and delete (on a Mixed workload
//	        the reader runs beside it instead of in a phase of its own)
//	recover persist, crash, restore; then audit answers and acked writes
//
// Every round starts from a fresh system and enters the pool at a different
// place (see start), so every metric gets one value per round — one-shot
// timings directly, rates and latency percentiles from that round's
// operations — and the run reports the median over the rounds. One slow
// round, or one unlucky first query, moves no number. The samples are also
// pooled over the rounds for the highest-percentile diagnostic.
type journey struct {
	in      *inputs
	tgt     target
	clients int
	perRnd  time.Duration // measured time per round, shared out over the phases
	tr      *tracer       // nil except in the traced twin
	rings   []*ring       // one per reader plus the writer's two, reused across phases
	start   int           // where this round enters the pool: a whole number of batches

	readNs  []int64
	writeNs []int64
	coldNs  []int64 // crack_stream only: the last round's per-query latencies, in stream order
	rounds  []roundTimes

	tallies  []tally // per client slot, the writer's last
	errMu    sync.Mutex
	firstErr error

	deleteP50us []float64 // per write phase: the median delete, a diagnostic
	readAllocs  float64   // Mallocs per read over the read phases (tail of the stream on crack_stream)
	counters    map[string]float64
	peakRSS     float64
}

// roundTimes holds the one-sample-per-round numbers.
type roundTimes struct {
	SetupS       float64 `json:"setup_s"`
	FirstQueryMs float64 `json:"first_query_ms"`
	CumulativeS  float64 `json:"cumulative_s"`
	RecoveryS    float64 `json:"recovery_s"`
	ReadP50us    float64 `json:"read_p50_us"`
	ReadP99us    float64 `json:"read_p99_us"`
	WriteP50us   float64 `json:"write_p50_us"`
	WriteP99us   float64 `json:"write_p99_us"`
	ReadQPS      float64 `json:"read_qps"`
	BatchQPS     float64 `json:"batch_qps"`
	WriteOpsS    float64 `json:"write_ops_s"`
	WarmPasses   int     `json:"warm_passes"`
	Reads        int     `json:"reads"`
	Batches      int     `json:"batches"`
	Writes       int     `json:"writes"`
}

// ringCap bounds the latency samples kept per client and phase. Once full,
// new samples overwrite the oldest, so memory (and with it peak_rss_mb of
// the in-process workloads) does not grow with how fast the system is.
const ringCap = 1 << 18

type ring struct {
	buf []int64 // capacity ringCap from the start: recording never allocates
	n   int
}

func newRing() *ring { return &ring{buf: make([]int64, 0, ringCap)} }

func (r *ring) reset() { r.buf, r.n = r.buf[:0], 0 }

func (r *ring) add(ns int64) {
	if len(r.buf) < ringCap {
		r.buf = append(r.buf, ns)
	} else {
		r.buf[r.n%ringCap] = ns
	}
	r.n++
}

// tally counts one client's operations. Each client has its own, a cache
// line apart: one shared counter bumped by every reader on every query would
// put the benchmark's own contention into the sub-microsecond read path.
type tally struct {
	attempted, failed int64
	_                 [48]byte
}

// ops returns the operations attempted and failed so far, over all clients.
func (j *journey) ops() (attempted, failed int64) {
	for i := range j.tallies {
		attempted += j.tallies[i].attempted
		failed += j.tallies[i].failed
	}
	return attempted, failed
}

// fail counts a failed operation of client c and keeps the first cause for
// the report.
func (j *journey) fail(c int, err error) {
	j.tallies[c].failed++
	j.errMu.Lock()
	if j.firstErr == nil {
		j.firstErr = err
	}
	j.errMu.Unlock()
}

// checked counts one operation client c attempted and its outcome: err is a
// refusal, transport failure or non-2xx; ok is whether the answer was right.
// what and i name the operation for the report; they are formatted only on
// failure, because boxing an int into a variadic argument would allocate on
// every call of the read path.
func (j *journey) checked(c int, err error, ok bool, what string, i int) {
	j.tallies[c].attempted++
	if err != nil {
		j.fail(c, fmt.Errorf("%s %d: %w", what, i, err))
	} else if !ok {
		j.fail(c, fmt.Errorf("%s %d: wrong answer", what, i))
	}
}

// The op helpers below open a root span per operation when the journey is
// traced (a nil tracer makes both calls no-ops). They use no closures: a
// closure capturing the result would put it on the heap and the benchmark
// itself would break the 0-alloc read path it is there to measure.

func (j *journey) query(c, qi int, out []int32) ([]int32, time.Duration) {
	t0 := time.Now()
	id := j.tr.beginRequest("op.query")
	out, err := j.tgt.Query(c, qi, out[:0])
	j.tr.end(id)
	dt := time.Since(t0)
	j.checked(c, err, err != nil || digest(out, j.in.writeBase) == j.in.want[qi], "query", qi)
	return out, dt
}

func (j *journey) batch(c, first int) time.Duration {
	t0 := time.Now()
	id := j.tr.beginRequest("op.batch")
	res, err := j.tgt.Batch(c, first)
	j.tr.end(id)
	dt := time.Since(t0)
	if err != nil {
		for k := 0; k < batchSize; k++ {
			j.checked(c, err, false, "batch query", first+k)
		}
		return dt
	}
	for k, ids := range res {
		j.checked(c, nil, digest(ids, j.in.writeBase) == j.in.want[first+k], "batch query", first+k)
	}
	j.tgt.ReleaseBatch(res)
	return dt
}

// parallel runs f once per client and waits for all of them.
func parallel(n int, f func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// at maps a position in this round's stream to a pool index.
func (j *journey) at(k int) int { return (j.start + k) % len(j.in.pool) }

// coldPass answers the stream from position from to its end, once. At core
// depth that is the paper's stream, query by query on one goroutine with
// every latency kept; at the other depths the pool goes through the batch
// entry point on all clients, which is how a cold server or library is
// warmed in practice.
func (j *journey) coldPass(from int) {
	n := len(j.in.pool)
	if j.in.spec.Depth == "core" {
		var out []int32
		for k := from; k < n; k++ {
			var dt time.Duration
			out, dt = j.query(0, j.at(k), out)
			j.coldNs = append(j.coldNs, int64(dt))
		}
		return
	}
	first := (from + batchSize - 1) / batchSize
	parallel(j.clients, func(c int) {
		for b := first + c; b < n/batchSize; b += j.clients {
			j.batch(c, j.at(b*batchSize))
		}
	})
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// readPhase runs closed-loop readers until until() says stop. Each reader
// starts at its own offset into the stream and walks it in order.
func (j *journey) readPhase(readers int, until func() bool) (lat timing, elapsed time.Duration) {
	rings := j.rings[:readers]
	for _, r := range rings {
		r.reset()
	}
	m0 := mallocs()
	t0 := time.Now()
	parallel(readers, func(c int) {
		var out []int32
		for k := c * len(j.in.pool) / readers; !until(); k++ {
			var dt time.Duration
			out, dt = j.query(c, j.at(k), out)
			rings[c].add(int64(dt))
		}
	})
	elapsed = time.Since(t0)
	ops := 0
	var ns []int64
	for _, r := range rings {
		ops += r.n
		ns = append(ns, r.buf...)
	}
	if ops > 0 {
		j.readAllocs = float64(mallocs()-m0) / float64(ops)
	}
	j.readNs = append(j.readNs, ns...)
	lat = summarise(ns)
	lat.Samples = ops // every operation counts, also the ones a full ring overwrote
	return lat, elapsed
}

func (j *journey) batchPhase(d time.Duration) (batches int, elapsed time.Duration) {
	nb := len(j.in.pool) / batchSize
	counts := make([]int, j.clients)
	deadline := time.Now().Add(d)
	t0 := time.Now()
	parallel(j.clients, func(c int) {
		for b := c * nb / j.clients; time.Now().Before(deadline); b++ {
			j.batch(c, j.at(b%nb*batchSize))
			counts[c]++
		}
	})
	elapsed = time.Since(t0)
	for _, n := range counts {
		batches += n
	}
	return batches, elapsed
}

// writePhase runs the single writer for d, advancing ws.
func (j *journey) writePhase(d time.Duration, ws *writeStream) (lat timing, elapsed time.Duration) {
	ins, del := j.rings[j.clients], j.rings[j.clients+1]
	ins.reset()
	del.reset()
	w := j.clients // the slot after the readers', as the writer's client index
	// The phase ends at the first write after its time is up that is half
	// a background cycle past the last flush or checkpoint trigger. What a
	// recovery has to replay (and a Save has to carry) is then the same in
	// every round; ending on the clock alone left anything between an empty
	// and a full WAL behind and spread recovery_s by 70 %.
	cycle := defaultFlushEvery
	if j.in.spec.Durable {
		cycle = mixedCheckpointEvery
	}
	deadline := time.Now().Add(d)
	t0 := time.Now()
	for time.Now().Before(deadline) || ws.ops%cycle != cycle/2 {
		i, isDel := ws.next()
		o := j.in.writeObject(i)
		var err error
		found := true
		s := time.Now()
		if isDel {
			id := j.tr.beginRequest("op.delete")
			found, err = j.tgt.Delete(w, o)
			j.tr.end(id)
			del.add(int64(time.Since(s)))
		} else {
			id := j.tr.beginRequest("op.insert")
			err = j.tgt.Insert(w, o)
			j.tr.end(id)
			ins.add(int64(time.Since(s)))
		}
		j.checked(w, err, found, "write of object", int(o.ID))
		if err != nil {
			break // the stream position is no longer known; the failure is already counted
		}
		ws.done(isDel)
	}
	elapsed = time.Since(t0)
	j.writeNs = append(append(j.writeNs, ins.buf...), del.buf...)
	// The reported median is the inserts'. Inserts and deletes come in equal
	// numbers, so the median of their mixture sits on the edge between the
	// two and flips with the slightest shift (19 % between seeds at core
	// depth); and a delete's cost at the library depths depends on how far
	// the region it lands in has been re-cracked since the last flush, which
	// makes its median broad (28 % between seeds). Deletes are in
	// write_ops_s, in the mixture's p99, and reported as delete_p50_us.
	lat = summarise(append(append([]int64(nil), ins.buf...), del.buf...))
	lat.Samples = ins.n + del.n
	lat.P50us = summarise(ins.buf).P50us
	j.deleteP50us = append(j.deleteP50us, summarise(del.buf).P50us)
	return lat, elapsed
}

// audit checks the recovered system: pool answers are still right, every
// acked and not deleted insert is returned, and the most recent acked
// deletes stay gone. A memory-only server loses its writes by design; there
// only the base answers are audited.
func (j *journey) audit(ws *writeStream) {
	j.batch(0, j.at(0))
	if !j.tgt.Durable() {
		return
	}
	probe := func(from, to int, want bool, what string) {
		objs := make([]geom.Object, 0, batchSize)
		for i := from; i < to; i += batchSize {
			objs = objs[:0]
			for k := i; k < to && k < i+batchSize; k++ {
				objs = append(objs, j.in.writeObject(k))
			}
			seen, err := j.tgt.Probe(0, objs)
			for k := range objs {
				j.checked(0, err, err != nil || seen[k] == want, what, int(objs[k].ID))
			}
		}
	}
	probe(ws.deleted, ws.inserted, true, "audit: acked insert lost, object")
	gone := ws.deleted - auditSample
	if gone < 0 {
		gone = 0
	}
	probe(gone, ws.deleted, false, "audit: acked delete came back, object")
}

// round runs one fresh set-up through all phases.
func (j *journey) round() (rt roundTimes, err error) {
	spec := j.in.spec
	crack := spec.Depth == "core"
	pool := j.in.pool

	t0 := time.Now()
	if err := j.tgt.Setup(); err != nil {
		return rt, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if cerr := j.tgt.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	built := time.Since(t0)

	// Cold phase.
	j.coldNs = j.coldNs[:0]
	c0 := time.Now()
	_, first := j.query(0, j.at(0), nil)
	if crack {
		j.coldNs = append(j.coldNs, int64(first))
	}
	rt.FirstQueryMs = float64(first) / 1e6
	j.coldPass(1)
	rt.CumulativeS = time.Since(c0).Seconds()
	rt.WarmPasses = 1
	if crack {
		// The stream is the measurement; set-up ended before query #1. Its
		// work counters are read here, after exactly one pass by one client,
		// so they repeat exactly from run to run.
		rt.SetupS = built.Seconds()
		if j.counters, err = j.tgt.Counters(); err != nil {
			return rt, fmt.Errorf("reading counters: %w", err)
		}
	} else {
		cracks, err := j.tgt.Cracks()
		for err == nil && rt.WarmPasses < maxWarmPasses {
			j.coldPass(0)
			rt.WarmPasses++
			var now uint64
			if now, err = j.tgt.Cracks(); now == cracks {
				break
			}
			cracks = now
		}
		if err != nil {
			return rt, fmt.Errorf("reading the crack counter: %w", err)
		}
		rt.SetupS = time.Since(t0).Seconds()
	}

	// Read phase. crack_stream's reads are the tail of its cold stream.
	readFor := time.Duration(float64(j.perRnd) * readShare)
	switch {
	case crack:
		// The tail queries were answered once already inside the stream;
		// their latencies there are the read samples.
		tail := int(float64(len(pool)) * tailShare)
		ns := append([]int64(nil), j.coldNs[len(j.coldNs)-tail:]...)
		j.readNs = append(j.readNs, ns...)
		lat := summarise(ns)
		rt.ReadP50us, rt.ReadP99us = lat.P50us, lat.P99us
		// The rate is the whole stream's. Over the tail alone it is the
		// reciprocal of a mean that a handful of late cracks decide: it
		// ranged from 40 k to 70 k/s between seeds.
		rt.Reads, rt.ReadQPS = len(pool), float64(len(pool))/rt.CumulativeS
		// Allocation count: replay the tail once more, now converged, into
		// a buffer that already fits the largest answer.
		most := 0
		for _, a := range j.in.want {
			most = max(most, int(a.n))
		}
		out := make([]int32, 0, most)
		m0 := mallocs()
		for k := len(pool) - tail; k < len(pool); k++ {
			out, _ = j.query(0, j.at(k), out)
		}
		j.readAllocs = float64(mallocs()-m0) / float64(tail)
	case !spec.Mixed:
		deadline := time.Now().Add(readFor)
		lat, el := j.readPhase(j.clients, func() bool { return !time.Now().Before(deadline) })
		rt.Reads, rt.ReadQPS = lat.Samples, float64(lat.Samples)/el.Seconds()
		rt.ReadP50us, rt.ReadP99us = lat.P50us, lat.P99us
	}

	// Batch phase.
	nb, el := j.batchPhase(time.Duration(float64(j.perRnd) * batchShare))
	rt.Batches, rt.BatchQPS = nb, float64(nb*batchSize)/el.Seconds()

	// Write phase, with the reader beside it on a mixed workload.
	ws := &writeStream{}
	writeFor := time.Duration(float64(j.perRnd) * writeShare)
	var wlat timing
	var wel time.Duration
	if spec.Mixed {
		writeFor += readFor
		var done atomic.Bool
		var rlat timing
		var rel time.Duration
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rlat, rel = j.readPhase(j.clients, done.Load)
		}()
		wlat, wel = j.writePhase(writeFor, ws)
		done.Store(true)
		wg.Wait()
		rt.Reads, rt.ReadQPS = rlat.Samples, float64(rlat.Samples)/rel.Seconds()
		rt.ReadP50us, rt.ReadP99us = rlat.P50us, rlat.P99us
	} else {
		wlat, wel = j.writePhase(writeFor, ws)
	}
	rt.Writes, rt.WriteOpsS = wlat.Samples, float64(wlat.Samples)/wel.Seconds()
	rt.WriteP50us, rt.WriteP99us = wlat.P50us, wlat.P99us

	// Counters are read before the crash: a restarted process starts its
	// series from zero.
	if !crack {
		if j.counters, err = j.tgt.Counters(); err != nil {
			return rt, fmt.Errorf("reading counters: %w", err)
		}
	}

	// Recover phase.
	if err := j.tgt.Persist(); err != nil {
		return rt, fmt.Errorf("persist: %w", err)
	}
	// A process is crashed and brought back twice and the round reports the
	// mean: process start-up is the noisiest thing the benchmark times, and
	// it is cheap to repeat. (An in-process Persist is not.)
	crashes := 1
	if spec.Depth == "http" {
		crashes = 2
	}
	for i := 0; i < crashes; i++ {
		r0 := time.Now()
		id := j.tr.beginRequest("op.recover")
		err = j.tgt.Recover()
		j.tr.end(id)
		if err != nil {
			return rt, fmt.Errorf("recover: %w", err)
		}
		rt.RecoveryS += time.Since(r0).Seconds() / float64(crashes)
	}
	j.audit(ws)

	rss, err := j.tgt.PeakRSSMiB()
	if err != nil {
		return rt, err
	}
	if rss > j.peakRSS {
		j.peakRSS = rss
	}
	return rt, nil
}

func newJourney(in *inputs, tgt target, clients int, perRound time.Duration, tr *tracer) *journey {
	j := &journey{in: in, tgt: tgt, clients: clients, perRnd: perRound, tr: tr}
	j.tallies = make([]tally, clients+1)
	// One ring per reader, then the writer's two (inserts, deletes).
	for c := 0; c < clients+2; c++ {
		j.rings = append(j.rings, newRing())
	}
	return j
}

// run executes all rounds, each entering the pool at its own place (see
// roundStart). A collection between rounds keeps the previous
// round's garbage out of the next one's memory high-water mark.
func (j *journey) run() error {
	for r := 0; r < j.in.spec.Rounds; r++ {
		j.start = roundStart(j.in.spec, r, len(j.in.pool))
		runtime.GC()
		rt, err := j.round()
		if err != nil {
			return fmt.Errorf("round %d: %w", r+1, err)
		}
		j.rounds = append(j.rounds, rt)
	}
	return nil
}
