// Panic isolation for the sharded engine. A sub-index that panics mid-probe
// (a corrupted slice hierarchy, an out-of-bounds walk) must not take the
// whole serving process down or — worse — leave its shard mutex locked
// forever so every later query hangs. Every probe into a sub-index
// therefore runs through one of the helpers below: the panic is recovered,
// the shard is quarantined, and the engine carries on over the remaining
// shards.
//
// Quarantine is fail-stop at shard granularity: once poisoned, a shard is
// skipped by queries, KNN, updates, Len/Stats walks and Flush (its objects
// drop out of results — degraded, but honest), and Snapshot refuses to run
// at all, because persisting a structure that just demonstrated memory
// corruption would turn a transient crash into a durable one. A quarantined
// engine heals only by rebuild: restart the process and recover from the
// last good snapshot + WAL.
//
// Lock-ordering subtlety: in each helper the recover defer is registered
// BEFORE the lock is taken (and its unlock deferred), so when a probe
// panics the deferred unlock runs first (LIFO) and the recover sees the
// shard already unlocked. Readers queued on the mutex wake up, observe the
// quarantined flag, and skip.

package shard

import (
	"errors"
	"log/slog"
	"runtime/debug"

	"repro/internal/core"
	"repro/internal/geom"
)

// ErrQuarantined is returned by Insert when the target shard has been
// quarantined after a sub-index panic, and by Snapshot/PinVersions when any
// shard is quarantined (a poisoned structure must not be persisted).
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

// Quarantined reports how many shards (spatial plus overflow) are currently
// quarantined. 0 on a healthy engine.
func (ix *Index) Quarantined() int {
	n := 0
	for _, sh := range ix.shards {
		if sh.quarantined.Load() {
			n++
		}
	}
	if sh := ix.overflow.Load(); sh != nil && sh.quarantined.Load() {
		n++
	}
	return n
}

// sharedProbe runs one shared-path range probe under the read lock with
// panic isolation. healthy == false means the sub-index panicked: the shard
// is now quarantined and res/ok are meaningless (the caller keeps its own
// buffer untouched, because a panic unwinds before the named results are
// assigned).
func (sh *shardEntry) sharedProbe(q geom.Box, out []int32) (res []int32, ok, healthy bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.poison(r)
		}
	}()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	res, ok = sh.sub.QueryShared(q, out)
	healthy = true
	return
}

// exclusiveProbe runs one budgeted-exclusive range probe under the write
// lock with panic isolation.
func (sh *shardEntry) exclusiveProbe(q geom.Box, out []int32) (res []int32, healthy bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.poison(r)
		}
	}()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	res = sh.sub.QueryBudgeted(q, out, sh.crackBudget) // budget < 0: unlimited
	healthy = true
	return
}

// knnSharedProbe is sharedProbe for the KNN read path.
func (sh *shardEntry) knnSharedProbe(p geom.Point, k int) (found []core.Neighbor, done, healthy bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.poison(r)
		}
	}()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	found, done = sh.sub.KNNShared(p, k)
	healthy = true
	return
}

// knnExclusiveProbe is exclusiveProbe for the KNN refining path.
func (sh *shardEntry) knnExclusiveProbe(p geom.Point, k int) (found []core.Neighbor, healthy bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.poison(r)
		}
	}()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	found = sh.sub.KNN(p, k)
	healthy = true
	return
}

// appendSharedProbe applies one insert under the READ lock with panic
// isolation: the sub-index publishes the append as a new immutable version
// (writers serialize on the sub-index's own version mutex), so concurrent
// shared readers keep flowing and only structural work (cracking, Flush)
// ever takes the shard's write lock. healthy == false means the append
// panicked mid-mutation: the shard is quarantined and the object must be
// considered not stored.
func (sh *shardEntry) appendSharedProbe(o geom.Object) (healthy bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.poison(r)
		}
	}()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sh.sub.Append(o)
	return true
}

// deleteSharedProbe attempts one tombstone under the READ lock with panic
// isolation. handled == false means the sub-index could not resolve the
// delete read-only (an unconverged region needs the exclusive locate path)
// and the caller must escalate to deleteProbe.
func (sh *shardEntry) deleteSharedProbe(id int32, hint geom.Box) (found, handled, healthy bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.poison(r)
		}
	}()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	found, handled = sh.sub.DeleteShared(id, hint)
	healthy = true
	return
}

// deleteProbe applies one delete under the write lock with panic isolation.
func (sh *shardEntry) deleteProbe(id int32, hint geom.Box) (found, healthy bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.poison(r)
		}
	}()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	found = sh.sub.Delete(id, hint)
	healthy = true
	return
}
