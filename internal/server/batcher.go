// Query coalescing: singleton /query requests arriving within a short
// window are merged into one shard.Index.QueryBatch fan-out. Under high
// concurrency this replaces N independent walks over the shard set (each
// taking and releasing per-shard locks) with one batch scheduled across the
// worker pool — the server-side analogue of group commit. The window is the
// latency the first query of a batch donates to its successors; keep it a
// small fraction of the typical query time (the default is 2ms).

package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// batch is one in-flight coalescing window. Submitters append their box,
// remember their slot, and block on done; the leader (first submitter)
// executes the whole batch and closes done.
type batch struct {
	boxes   []geom.Box
	traces  []*telemetry.Trace // aligned with boxes; all-nil when nothing is sampled
	results [][]int32
	// execStart is when the leader began executing the batch; submitters read
	// it after done closes to attribute their coalescing-window wait.
	execStart time.Time
	fire      chan struct{} // closed when the batch fills up before the window ends
	done      chan struct{} // closed after results are populated
}

// batcher coalesces queries into batches of at most limit boxes per window.
type batcher struct {
	ix     *shard.Index
	adm    *admission
	window time.Duration
	limit  int

	mu  sync.Mutex
	cur *batch

	batches atomic.Int64
	queries atomic.Int64

	// mOccupancy observes how many queries each executed batch carried
	// (1 for every immediate-path query). Set once by Server.instrument.
	mOccupancy *telemetry.Histogram
}

func newBatcher(ix *shard.Index, adm *admission, window time.Duration, limit int) *batcher {
	return &batcher{ix: ix, adm: adm, window: window, limit: limit}
}

// do answers one query, possibly coalesced with concurrent ones. With a
// zero window the query executes immediately (still under an execution
// slot). tr, when non-nil, collects stage timings for the sampled trace.
// ctx covers this submitter only: the immediate path threads it into the
// shard fan-out, and a coalesced submitter stops waiting when it ends —
// the batch leader keeps executing on behalf of the other waiters (it
// coalesces many clients, so no single client's disconnect aborts it).
func (b *batcher) do(ctx context.Context, q geom.Box, tr *telemetry.Trace) ([]int32, error) {
	if b.window <= 0 {
		// The result buffer comes from the shard pool; handleQuery returns
		// it after encoding the response.
		var out []int32
		var err error
		b.adm.execTraced(tr, func() {
			t0 := time.Now()
			out, err = b.ix.QueryCtx(ctx, q, shard.GetResultBuf(), tr)
			tr.StageSince(telemetry.StageFanout, t0)
		})
		b.mOccupancy.Observe(1)
		tr.SetBatchSize(1)
		b.batches.Add(1)
		b.queries.Add(1)
		if err != nil {
			shard.PutResultBuf(out)
			return nil, err
		}
		return out, nil
	}
	submitted := time.Now()
	b.mu.Lock()
	bt := b.cur
	if bt == nil {
		bt = &batch{fire: make(chan struct{}), done: make(chan struct{})}
		b.cur = bt
		go b.run(bt)
	}
	slot := len(bt.boxes)
	bt.boxes = append(bt.boxes, q)
	bt.traces = append(bt.traces, tr)
	if b.limit > 0 && len(bt.boxes) >= b.limit {
		// Full before the window closed: detach so the next submitter opens
		// a fresh batch, and wake the leader early. Detaching under mu
		// guarantees fire is closed exactly once.
		b.cur = nil
		close(bt.fire)
	}
	b.mu.Unlock()
	select {
	case <-bt.done:
	case <-ctx.Done():
		// Abandon the slot: the leader still executes and closes done, but
		// nobody collects results[slot] — its pooled buffer falls to the GC,
		// which is the price of not making every waiter hostage to the
		// slowest client's patience.
		return nil, ctx.Err()
	}
	if tr != nil {
		// Time parked in the coalescing window (and behind the leader's slot
		// wait) before the batch actually started executing.
		tr.AddStage(telemetry.StageCoalesce, bt.execStart.Sub(submitted))
		tr.SetBatchSize(len(bt.boxes))
	}
	return bt.results[slot], nil
}

// run is the batch leader: it sleeps out the window (or a full batch),
// detaches the batch, executes it on the shard worker pool, and releases
// the waiters.
func (b *batcher) run(bt *batch) {
	timer := time.NewTimer(b.window)
	select {
	case <-timer.C:
	case <-bt.fire:
		timer.Stop()
	}
	b.mu.Lock()
	if b.cur == bt {
		b.cur = nil
	}
	boxes := bt.boxes // no appends can arrive after the detach
	b.mu.Unlock()

	b.adm.exec(func() {
		bt.execStart = time.Now()
		// The leader coalesces many clients, so no single client's
		// context governs the batch: it runs uncancellable, and the error
		// is therefore always nil.
		bt.results, _ = b.ix.QueryBatchCtx(context.Background(), boxes, bt.traces)
		fanout := time.Since(bt.execStart)
		for _, tr := range bt.traces {
			tr.AddStage(telemetry.StageFanout, fanout)
		}
	})
	b.mOccupancy.Observe(float64(len(boxes)))
	b.batches.Add(1)
	b.queries.Add(int64(len(boxes)))
	close(bt.done)
}

// stats snapshots the coalescing counters for /stats.
func (b *batcher) stats() BatcherStats {
	s := BatcherStats{
		Batches:        b.batches.Load(),
		BatchedQueries: b.queries.Load(),
		WindowMicros:   b.window.Microseconds(),
	}
	if s.Batches > 0 {
		s.AvgBatchSize = float64(s.BatchedQueries) / float64(s.Batches)
	}
	return s
}
