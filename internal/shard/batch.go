// Batch scheduling: many queries in flight at once, answered by the shared
// worker pool. With inter-query parallelism available, each query runs
// serially over its overlapping shards — per-query fan-out would only add
// goroutine churn on a saturated pool — so the workers stay busy as long as
// the queries spread across shards.

package shard

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/telemetry"
)

// QueryBatch answers every query and returns the per-query ID sets, indexed
// like queries. The calling goroutine always drains queries itself; helper
// goroutines join only while slots are free in the engine's global worker
// pool (the same pool Query's fan-out draws from), so concurrent QueryBatch
// calls share one hardware-sized bound instead of multiplying. Results are
// identical to calling Query on each box in order. Safe for concurrent use,
// including concurrently with Query.
func (ix *Index) QueryBatch(queries []geom.Box) [][]int32 {
	results, _ := ix.QueryBatchCtx(context.Background(), queries, nil)
	return results
}

// QueryBatchCtx is QueryBatch with cooperative cancellation and optional
// sampled stage traces. The drain loop checks the context before claiming
// each query, so a cancelled batch stops within one query per worker; when
// err != nil, unanswered entries are nil and answered ones are valid (the
// serving layer still recycles them). traces, when non-nil, is indexed like
// queries and carries the trace of each sampled query (nil entries — the
// common case — are untraced); the serving layer aligns it with the
// coalesced batch it hands down.
func (ix *Index) QueryBatchCtx(ctx context.Context, queries []geom.Box, traces []*telemetry.Trace) ([][]int32, error) {
	ctx = cancellable(ctx)
	results := make([][]int32, len(queries))
	var next atomic.Int64
	drain := func() {
		var hit []*shardEntry
		for cancelled(ctx) == nil {
			qi := int(next.Add(1)) - 1
			if qi >= len(queries) {
				return
			}
			var tr *telemetry.Trace
			if traces != nil {
				tr = traces[qi]
			}
			hit = ix.overlapping(queries[qi], hit[:0])
			ix.mFanout.Observe(float64(len(hit)))
			tr.SetFanout(len(hit))
			// Result buffers come from the engine's pool; callers that are
			// done with them can hand them back via RecycleResults (the
			// HTTP server does after encoding each response). One query's
			// shards are probed to the end once claimed: cancellation is
			// query-granular here.
			results[qi], _ = querySerial(nil, hit, queries[qi], GetResultBuf(), tr)
		}
	}
	helpers := ix.workers
	if helpers > len(queries) {
		helpers = len(queries)
	}
	var wg sync.WaitGroup
	for w := 1; w < helpers; w++ {
		// Non-blocking acquire, like Query's fan-out: when the pool is
		// saturated by concurrent callers, the batch still completes on the
		// caller's goroutine rather than stacking idle helpers.
		select {
		case ix.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				drain()
				<-ix.sem
			}()
		default:
		}
	}
	drain()
	wg.Wait()
	return results, cancelled(ctx)
}
