// Panic isolation for the sharded engine. A sub-index that panics mid-probe
// (a corrupted slice hierarchy, an out-of-bounds walk) must not take the
// whole serving process down or — worse — leave its shard mutex locked
// forever so every later query hangs. Every operation that can reorganize
// or publish into a sub-index — queries, KNN, inserts, deletes, Flush,
// Complete — therefore runs through guard below: the panic is recovered, the
// shard is quarantined, and the engine carries on over the remaining shards.
//
// Quarantine is fail-stop at shard granularity: once poisoned, a shard is
// skipped by queries, KNN, updates, Len/Stats walks and Flush (its objects
// drop out of results — degraded, but honest), and Snapshot refuses to run
// at all, because persisting a structure that just demonstrated memory
// corruption would turn a transient crash into a durable one. A quarantined
// engine heals only by rebuild: restart the process and recover from the
// last good snapshot + WAL.
//
// Lock-ordering subtlety: guard registers the recover defer BEFORE the lock
// is taken (and its unlock deferred), so when a probe panics the deferred
// unlock runs first (LIFO) and the recover sees the shard already unlocked.
// Readers queued on the mutex wake up, observe the quarantined flag, and
// skip.

package shard

import (
	"errors"
	"log/slog"
	"runtime/debug"
)

// ErrQuarantined is returned by Insert when the target shard — or every
// shard — has been quarantined after a sub-index panic, and by
// Snapshot/PinVersions when any shard is quarantined (a poisoned structure
// must not be persisted).
var ErrQuarantined = errors.New("shard: quarantined after sub-index panic")

// poison records one recovered sub-index panic: the shard is quarantined
// (every later operation skips it), the panic counter ticks, and the cause
// plus stack goes to the process logger so the event is diagnosable after
// the fact.
func (sh *shardEntry) poison(cause any) {
	first := !sh.quarantined.Swap(true)
	sh.mPanics.Inc()
	slog.Error("shard: sub-index panicked, shard quarantined",
		"cause", cause, "first", first, "stack", string(debug.Stack()))
}

// guard runs f on the shard's sub-index under the write lock (exclusive) or
// the read lock, with panic isolation. Shared probes — reads and the
// version-publishing Append/DeleteShared, whose writers serialize on the
// sub-index's own version mutex — take the read lock, so they flow in
// parallel; anything that reorganizes the sub-index takes the write lock.
// healthy == false means f panicked: the shard is now quarantined, whatever
// f was assigning is meaningless, and a mutation it was applying must be
// considered not done. f is only called, never retained, so a caller's
// closure stays on its stack — the converged query path allocates nothing.
func (sh *shardEntry) guard(exclusive bool, f func(sub subIndex)) (healthy bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.poison(r)
		}
	}()
	if exclusive {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	} else {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
	}
	f(sh.sub)
	return true
}
