// Live updates on the sharded engine: Insert and Delete route each object
// to the shard owning its tile and delegate to the sub-index's own update
// machinery (core.Index.Append / DeleteShared / DeleteBudgeted / Flush: arrivals
// are buffered and scanned by every query until a Flush folds them in,
// deletions tombstone immediately).
//
// # Consistency contract
//
// Each object lives in exactly one shard, and data changes are versioned
// (see core/version.go): an Insert or Delete publishes a
// new immutable version with an atomic pointer swap under the shard's READ
// lock, so writers never evict concurrent readers — only structural work
// (cracking, Flush) takes the write lock. The engine provides per-object
// atomicity: an Insert or Delete that has returned is visible to every
// query that starts afterwards (a reader loads the version head once and
// sees every version published before that load). There is no multi-object
// or cross-shard atomicity — a Query concurrent with a multi-object Insert
// may observe any prefix of it, and a multi-shard Query visits its shards
// one at a time, so two overlapping queries racing one update may disagree
// on whether they saw it. Deletes take effect immediately (tombstones
// filter results before compaction); inserts are visible immediately too
// (the pending delta is scanned by every query) but cost O(pending) per
// query until Flush merges them into the indexed arrays. Shard bounding
// boxes only ever grow — deleting the outermost object does not shrink the
// box — which keeps concurrent routing lock-free and is conservative but
// always correct.

package shard

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/geom"
)

// Insert routes each object to the shard whose build-time tile box is
// nearest to the object's center (see route) and appends it there. The
// shard's live bounding box is grown first, so a query that starts after
// Insert returns cannot miss the object. The append runs under the shard's
// read lock — it publishes a new version instead of mutating shared state,
// so concurrent readers are never evicted. Safe for concurrent use. Fails
// with ErrQuarantined when the owning shard panicked or no healthy shard is
// left.
func (ix *Index) Insert(objs ...geom.Object) error {
	for i := range objs {
		sh, err := ix.route(&objs[i])
		if err != nil {
			return err
		}
		sh.extendBounds(objs[i].Box)
		if !sh.guard(false, func(sub subIndex) { sub.Append(objs[i]) }) {
			return fmt.Errorf("%w (insert of id %d dropped)", ErrQuarantined, objs[i].ID)
		}
		ix.count.Add(1)
	}
	return nil
}

// route picks the owning shard for an object: the healthy shard whose
// build-time tile is nearest to the object's center (containment means
// distance zero; ties break in shard order, deterministically). A center
// outside every tile goes to the nearest one all the same: the live bounds
// Insert extends keep queries exact. Quarantined shards no longer accept
// objects, so routing falls through to the next-nearest healthy tile. When
// no tile has a finite distance — the one empty tile of an index built over
// no objects — the first healthy shard wins.
func (ix *Index) route(o *geom.Object) (*shardEntry, error) {
	c := o.Center()
	var best *shardEntry
	var bestD float64
	for _, sh := range ix.shards {
		if sh.quarantined.Load() {
			continue
		}
		if d := sh.tile.MinDistSq(c); best == nil || d < bestD {
			best, bestD = sh, d
			if d == 0 {
				break
			}
		}
	}
	if best == nil {
		return nil, ErrQuarantined
	}
	return best, nil
}

// Delete removes the object with the given ID, using hint (typically the
// object's own box, as in core.Index.Delete) to locate it: every shard
// whose live bounds intersect the hint is probed in shard order until one
// reports the object found. The tombstone is first attempted under the
// shard's read lock (DeleteShared publishes a new version without blocking
// readers); only when the sub-index cannot locate the object read-only — an
// unconverged region — does the probe escalate to the write lock, refining
// around the hint within the crack budget. It reports whether an object was
// deleted. Safe for concurrent use.
func (ix *Index) Delete(id int32, hint geom.Box) (bool, error) {
	var hitBuf [16]*shardEntry
	for _, sh := range ix.overlapping(hint, hitBuf[:0]) {
		var found, handled bool
		healthy := sh.guard(false, func(sub subIndex) { found, handled = sub.DeleteShared(id, hint) })
		if healthy && !handled {
			healthy = sh.guard(true, func(sub subIndex) { found = sub.DeleteBudgeted(id, hint, sh.crackBudget) })
		}
		if !healthy {
			continue // shard just quarantined itself; probe the rest
		}
		if found {
			ix.count.Add(-1)
			return true, nil
		}
	}
	return false, nil
}

// Flush merges pending inserts and tombstoned deletions into every shard's
// indexed array and slice hierarchy (see core.Index.Flush). The shards are
// folded concurrently, one goroutine per healthy shard, each under its own
// shard's lock, and Flush returns once all of them are done. The refinement
// a shard's queries did survives the merge: only leaves the arrivals push
// past τ are cracked again. A sub-index that panics mid-flush quarantines
// its shard (see guard, which recovers inside that shard's goroutine) and
// the other shards are still flushed. Each call is one observation of
// quasii_shard_flush_duration_seconds. The error is always nil: it dates
// from pluggable sub-indexes that could refuse updates, and the signature is
// kept for the callers that check it.
func (ix *Index) Flush() error {
	t0 := time.Now()
	var wg sync.WaitGroup
	ix.forEach(func(sh *shardEntry) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.guard(true, func(sub subIndex) { sub.Flush() })
		}()
	})
	wg.Wait()
	ix.mFlush.ObserveDuration(time.Since(t0))
	return nil
}

// Pending returns the total number of appended objects not yet folded into
// the shards' indexed arrays.
func (ix *Index) Pending() int {
	n := 0
	ix.forEach(func(sh *shardEntry) {
		sh.mu.RLock()
		n += sh.sub.Pending()
		sh.mu.RUnlock()
	})
	return n
}
