package colstore

import (
	"math/bits"
	"sync/atomic"
)

// Tombstones is one version's view of a generation's tombstone table: the
// IDs deleted since the last Flush. Every version of a generation shares
// one insert-only table, and a view sees exactly the entries whose 1-based
// insertion ordinal is at most its length. Adding a tombstone therefore
// publishes a view one entry longer instead of copying the set, which makes
// a delete amortised O(1) however many tombstones are live.
//
// Sharing is race-free by construction. The single writer (the index's
// version mutex serializes them) stores each slot atomically and readers
// load slots atomically; an entry never moves inside its table, and an
// entry beyond a view's length is invisible to it. Growth copies the
// entries into a new table, which only views made after the growth point
// to; the old table is never written again, so a view pinned earlier keeps
// reading a frozen table. The zero value is the empty view.
type Tombstones struct {
	tab *tombTable
	n   int
}

// tombTable is an open-addressing hash table of IDs with linear probing,
// kept at most half full. A slot packs an entry's insertion ordinal (high
// 32 bits) with its ID (low 32 bits); 0 marks an empty slot, because
// ordinals start at 1. ids lists the entries in insertion order — ids[k]
// carries ordinal k+1 — and its length is the table's capacity in entries,
// so appending an entry writes one element beyond every published view and
// never touches the slice header readers share.
type tombTable struct {
	slots []atomic.Uint64
	shift uint // 64 - log2(len(slots)): the hash keeps its top bits
	ids   []int32
	n     int // entries added; read and written by the writer only
}

// minTombSlots is the slot count of a generation's first table.
const minTombSlots = 16

// newTombTable returns an empty table of slots slots, a power of two.
func newTombTable(slots int) *tombTable {
	return &tombTable{
		slots: make([]atomic.Uint64, slots),
		shift: uint(64 - bits.TrailingZeros(uint(slots))),
		ids:   make([]int32, slots/2),
	}
}

// TombstonesOf returns a view holding ids, in order (a repeated ID is held
// once). Load rebuilds a snapshot's tombstones with it.
func TombstonesOf(ids []int32) Tombstones {
	var v Tombstones
	for _, id := range ids {
		v = v.With(id)
	}
	return v
}

// Len returns the number of tombstones in the view.
func (v Tombstones) Len() int { return v.n }

// Has reports whether id is tombstoned in the view.
func (v Tombstones) Has(id int32) bool {
	if v.n == 0 {
		return false
	}
	t := v.tab
	mask := uint(len(t.slots) - 1)
	for i := t.home(id); ; i = (i + 1) & mask {
		e := t.slots[i].Load()
		if e == 0 {
			return false
		}
		if int32(uint32(e)) == id {
			return int(e>>32) <= v.n
		}
	}
}

// IDs returns the view's tombstones in insertion order. The slice is
// shared with the table and must not be modified.
func (v Tombstones) IDs() []int32 {
	if v.n == 0 {
		return nil
	}
	return v.tab.ids[:v.n:v.n]
}

// With returns the view with id added: v itself when id is already in it,
// otherwise a view one entry longer over the same table (or over a grown
// copy once the table is half full). v must be the newest view of its
// table; callers serialize With on one generation. The result is visible
// to other goroutines only once it is published by a synchronizing store,
// such as the index's atomic version swap.
func (v Tombstones) With(id int32) Tombstones {
	if v.Has(id) {
		return v
	}
	t := v.tab
	switch {
	case t == nil:
		t = newTombTable(minTombSlots)
	case t.n != v.n:
		panic("colstore: Tombstones.With on a superseded view")
	case t.n == len(t.ids):
		t = t.grown()
	}
	t.ids[t.n] = id
	t.n++
	t.insert(id, t.n)
	return Tombstones{tab: t, n: t.n}
}

// grown copies t's entries, ordinals included, into a table twice its size.
func (t *tombTable) grown() *tombTable {
	g := newTombTable(2 * len(t.slots))
	g.n = copy(g.ids, t.ids[:t.n])
	for k, id := range g.ids[:g.n] {
		g.insert(id, k+1)
	}
	return g
}

// insert stores id with ordinal ord in the first empty slot of its probe
// sequence. The table is at most half full, so one exists.
func (t *tombTable) insert(id int32, ord int) {
	mask := uint(len(t.slots) - 1)
	for i := t.home(id); ; i = (i + 1) & mask {
		if t.slots[i].Load() == 0 {
			t.slots[i].Store(uint64(ord)<<32 | uint64(uint32(id)))
			return
		}
	}
}

// home is id's first probe slot (Fibonacci hashing).
func (t *tombTable) home(id int32) uint {
	return uint(uint64(uint32(id)) * 0x9E3779B97F4A7C15 >> t.shift)
}
