// MVCC version chain: the index's mutable update state — pending inserts,
// tombstones, and the derived extent bookkeeping — lives in immutable,
// sequence-tagged Version values layered over the columnar lanes instead of
// in plain Index fields. A reader loads the live version once (an atomic
// pointer read) and walks lanes + visible deltas against that frozen view;
// a writer builds the successor version and publishes it with an atomic
// swap. Readers therefore never block on writers and never retry because of
// a data change — the crack epoch, which used to move on every Append and
// Delete, now moves only for structural reorganizations (cracks, splices,
// finalizations, flushes) that genuinely invalidate an in-flight walk.
//
// # Copy-on-write discipline
//
// A generation runs from one Flush to the next, and both deltas are one
// store per generation that every version reads a prefix of. pending grows
// append-only and successive versions share its backing array: version v
// reads only pending[:len_v], and the slots beyond len_v are written exactly
// once (by the serialized writer that publishes the next version) before
// that next version is published. deleted is a view of one insert-only
// tombstone table (colstore.Tombstones): each entry carries its insertion
// ordinal, and v sees exactly the entries whose ordinal is at most its
// DeletedLen, so a delete adds one entry and publishes a view one longer —
// nothing is copied. The table's slots are stored and loaded atomically and
// an entry never moves; growth copies the entries into a new table that
// only versions published afterwards reference, and the old table is never
// written again. The atomic publish gives the happens-before edge, so the
// sharing is race-free by construction. Flush publishes an empty pending
// list and the empty tombstone view.
//
// # Locking contract
//
// Writers (Append, Delete, DeleteShared, Flush) serialize on verMu, so any
// number of them may run under the shard's *shared* lock concurrently with
// readers. The exclusive lock is still required for structural work —
// cracking queries and Flush — exactly as before. PinVersion/Release must
// be called while holding at least the same shared lock the readers use;
// that exclusion is what lets Flush decide safely whether a pinned version
// still references the current lanes (and clone them if so).
//
// # Garbage collection
//
// Every publish and every pin release truncates the chain: predecessors
// that are not pinned are spliced out (their view is unreachable — readers
// only ever load the head, and pinned holders keep their own pointer).
// After quiescence the chain is exactly one version long; the shard layer's
// CheckInvariants enforces a configurable upper bound (the GC horizon).

package core

import (
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/geom"
)

// Version is one immutable snapshot of the index's update state. A Version
// obtained from PinVersion stays valid — its pending slice, tombstone view,
// and base table are never mutated — until Release. The zero Version is not
// meaningful; versions are created only by the index.
type Version struct {
	seq     uint64
	pending []geom.Object       // appended objects not yet folded into the lanes
	deleted colstore.Tombstones // tombstoned IDs (lane rows and pending entries)
	maxExt  geom.Point          // max object extent per dimension at this version
	dataMBB geom.Box            // bounding box of all data at this version

	// table, root and tau identify the base the deltas layer over. They
	// track the index's live fields until a Flush supersedes them, at which
	// point this version keeps the superseded (now frozen) generation. The
	// table's rows may still be reordered in place by cracking while this
	// version is current-generation — content, not membership, changes — so
	// serializing a pinned version must happen under the same lock that
	// excludes cracking (the shard's read lock).
	table *colstore.Table
	root  *sliceList
	tau   [geom.Dims]int

	pins  atomic.Int64
	prev  atomic.Pointer[Version]
	owner *Index
}

// Seq returns the version's sequence number: the value DataVersion reported
// when this version was live. Strictly increasing along the chain.
func (v *Version) Seq() uint64 { return v.seq }

// PendingLen and DeletedLen expose the delta sizes of this version's view.
func (v *Version) PendingLen() int { return len(v.pending) }
func (v *Version) DeletedLen() int { return v.deleted.Len() }

// eachPending calls hit with the ID of every pending object of v that
// intersects q and is not tombstoned. Appended objects are unindexed until
// Flush, so every query — exclusive or shared — scans them linearly.
func (v *Version) eachPending(q geom.Box, hit func(id int32)) {
	if q.IsEmpty() {
		return
	}
	for i := range v.pending {
		if v.pending[i].Intersects(q) {
			if !v.deleted.Has(v.pending[i].ID) {
				hit(v.pending[i].ID)
			}
		}
	}
}

// Release unpins the version and lets garbage collection splice it out of
// the chain. Call exactly once per PinVersion, holding at least the shared
// lock (the same contract as PinVersion).
func (v *Version) Release() {
	ix := v.owner
	ix.verMu.Lock()
	v.pins.Add(-1)
	ix.gcLocked()
	ix.verMu.Unlock()
}

// liveVersion returns the current head of the version chain. Always
// non-nil on an index built by New or Load.
func (ix *Index) liveVersion() *Version { return ix.live.Load() }

// DataVersion returns the sequence number of the live version — the real
// version counter the crack epoch generalized into. It moves on every
// accepted data change (Append, Delete, Flush) and is untouched by
// structural refinement.
func (ix *Index) DataVersion() uint64 { return ix.live.Load().seq }

// LiveVersions returns the current length of the version chain (head
// included). 1 means fully collected: no superseded version is reachable.
func (ix *Index) LiveVersions() int {
	ix.verMu.Lock()
	defer ix.verMu.Unlock()
	n := 0
	for v := ix.live.Load(); v != nil; v = v.prev.Load() {
		n++
	}
	return n
}

// PinVersion pins the live version against garbage collection and returns
// it. The caller must hold at least the shared lock guarding this index and
// must call Release exactly once. While pinned, the version's view survives
// any number of appends, deletes, flushes and checkpoints.
func (ix *Index) PinVersion() *Version {
	ix.verMu.Lock()
	v := ix.live.Load()
	v.pins.Add(1)
	ix.verMu.Unlock()
	return v
}

// publishLocked installs nv as the new live version and truncates the
// chain. Caller holds verMu.
func (ix *Index) publishLocked(nv *Version) {
	nv.owner = ix
	nv.prev.Store(ix.live.Load())
	ix.live.Store(nv)
	ix.gcLocked()
}

// gcLocked splices every unpinned predecessor out of the chain, keeping the
// head and every pinned version (a pinned version's own prev pointers keep
// collapsing too, so released pins cannot resurrect intermediates). Caller
// holds verMu.
func (ix *Index) gcLocked() {
	cur := ix.live.Load()
	for {
		next := cur.prev.Load()
		if next == nil {
			return
		}
		if next.pins.Load() > 0 {
			cur = next
			continue
		}
		cur.prev.Store(next.prev.Load())
	}
}

// chainPinned reports whether any version in the chain is pinned. Flush
// consults it (under the exclusive lock, which excludes new pins by the
// locking contract) to decide whether the lanes and the slice tree must be
// copied before its merge so pinned views stay immutable.
func (ix *Index) chainPinned() bool {
	for v := ix.live.Load(); v != nil; v = v.prev.Load() {
		if v.pins.Load() > 0 {
			return true
		}
	}
	return false
}

// initVersion installs the index's first version from its freshly built
// state. Called by New, Load, and nowhere else.
func (ix *Index) initVersion(pending []geom.Object, deleted colstore.Tombstones, maxExt geom.Point, dataMBB geom.Box) {
	v := &Version{
		seq:     1,
		pending: pending,
		deleted: deleted,
		maxExt:  maxExt,
		dataMBB: dataMBB,
		table:   ix.data,
		root:    ix.root,
		tau:     ix.tau,
		owner:   ix,
	}
	ix.live.Store(v)
}

// AppendVersioned registers new objects and returns the sequence number of
// the version that made them visible: a reader pinned at or after that
// sequence is guaranteed to see them. Safe under the shared lock,
// concurrently with readers and other writers.
func (ix *Index) AppendVersioned(objs ...geom.Object) uint64 {
	ix.verMu.Lock()
	defer ix.verMu.Unlock()
	cur := ix.live.Load()
	nv := &Version{
		seq: cur.seq + 1,
		// Append-only COW: old versions read only their own prefix.
		pending: append(cur.pending, objs...),
		deleted: cur.deleted,
		maxExt:  cur.maxExt,
		dataMBB: cur.dataMBB,
		table:   cur.table,
		root:    cur.root,
		tau:     cur.tau,
	}
	for i := range objs {
		for d := 0; d < geom.Dims; d++ {
			if e := objs[i].Max[d] - objs[i].Min[d]; e > nv.maxExt[d] {
				nv.maxExt[d] = e
			}
		}
		nv.dataMBB = nv.dataMBB.Extend(objs[i].Box)
	}
	ix.publishLocked(nv)
	return nv.seq
}

// DeleteShared removes the object with the given ID without taking the
// exclusive path, using hint to locate it through the read-only shared
// walk. found reports whether a visible object carrying id intersected
// hint; ok reports whether the shared walk could decide at all — ok ==
// false means the hint region still needs refinement and the caller must
// escalate to the exclusive Delete. Safe under the shared lock.
func (ix *Index) DeleteShared(id int32, hint geom.Box) (found, ok bool) {
	_, found, ok = ix.deleteSeq(id, hint, (*Index).positionsShared)
	return found, ok
}

// deleteSeq is the one delete body: it locates id through probe (see
// positionProbe) and publishes its tombstone, returning the publishing
// sequence (0 when nothing was deleted — the visibility harness correlates
// it with pinned reads). ok == false means the probe needs exclusive work.
// An ID already tombstoned reads as absent.
func (ix *Index) deleteSeq(id int32, hint geom.Box, probe positionProbe) (seq uint64, found, ok bool) {
	ix.verMu.Lock()
	cur := ix.live.Load()
	if cur.deleted.Has(id) {
		ix.verMu.Unlock()
		return 0, false, true
	}
	// A pending object is tombstoned exactly like an indexed one: the
	// version's pending slice is immutable, and Flush drops tombstoned
	// entries instead of folding them in.
	for i := range cur.pending {
		if cur.pending[i].ID == id && cur.pending[i].Intersects(hint) {
			seq = ix.tombstoneLocked(cur, id)
			ix.verMu.Unlock()
			return seq, true, true
		}
	}
	ix.verMu.Unlock()
	if cur.table.Len() == 0 || hint.IsEmpty() {
		return 0, false, true
	}
	// Locate in the indexed lanes. Positions are stable once the probe
	// returns: structural reorganization needs the exclusive lock, which
	// the caller either holds (refining probe) or excludes (shared probe).
	pos, ok := probe(ix, cur, hint, nil)
	if !ok {
		return 0, false, false
	}
	for _, p := range pos {
		if cur.table.ID[p] == id {
			// Re-take verMu and re-check under it: a concurrent writer may
			// have tombstoned id between the scan above and now.
			ix.verMu.Lock()
			defer ix.verMu.Unlock()
			cur = ix.live.Load()
			if cur.deleted.Has(id) {
				return 0, false, true
			}
			return ix.tombstoneLocked(cur, id), true, true
		}
	}
	return 0, false, true
}

// tombstoneLocked publishes cur's successor carrying one extra tombstone
// and returns the publishing sequence. Caller holds verMu and has verified
// id is visible in cur. The tombstone joins the generation's shared table;
// cur keeps seeing the table as it was.
func (ix *Index) tombstoneLocked(cur *Version, id int32) uint64 {
	nv := &Version{
		seq:     cur.seq + 1,
		pending: cur.pending,
		deleted: cur.deleted.With(id),
		maxExt:  cur.maxExt,
		dataMBB: cur.dataMBB,
		table:   cur.table,
		root:    cur.root,
		tau:     cur.tau,
	}
	ix.publishLocked(nv)
	return nv.seq
}
