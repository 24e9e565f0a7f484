// Package core implements QUASII, the QUery-Aware Spatial Incremental Index
// of Pavlovic et al. (EDBT 2018).
//
// QUASII indexes 3-d boxes in main memory as a side effect of range-query
// execution. The data array is cracked (partially partitioned in place) on the
// bounds of each incoming query, one dimension at a time: a query first slices
// the array on x, then slices the matching x-slice on y, then on z. The
// resulting slices form a d-level hierarchy (one level per dimension) that is
// refined further by every subsequent query. Slices that grow small enough
// (below the per-level threshold τ) are final and carry an exact minimum
// bounding box; larger slices carry a looser box, exact in the dimension
// they were cracked on and inherited (ultimately the data's MBB) in the
// others.
//
// Objects are assigned to slices by one representative coordinate, their
// lower corner — free, since it is part of the stored MBB. Because a
// volumetric object can overhang its slice, refinement cracks on a query
// range whose lower bound is extended by the maximum object extent, and the
// search over sibling slices is extended by the maximum slice extent — the
// "query extension" technique of Stefanakis et al.
//
// Storage is columnar (internal/colstore): the objects live as seven
// contiguous lanes (per-dimension min/max plus IDs) so the cracking kernel
// streams one key lane and the bottom-level scan is a branch-light interval
// filter over contiguous memory. The AoS geom.Object API remains the public
// surface — New ingests objects into the lanes, queries return IDs.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/geom"
)

// Config controls QUASII's behaviour. The zero value is usable: it selects
// the paper's defaults (τ = 60). Objects are always assigned to slices by
// their lower corner, artificial refinement is always on, and a re-cracked
// band over 2·τ₀ is always halved first (see planCuts) — none is a knob.
type Config struct {
	// Tau is the maximum number of objects in a fully refined slice at the
	// finest (z) level. The paper uses 60. Values < 1 mean 60.
	Tau int
	// HeatSampleEvery records per-slice access heat for one query in every
	// N: a sampled query atomically increments the touch counter of every
	// slice it descends through or scans, on both the exclusive and the
	// shared read path. The counters feed Inspect (and, above it, the
	// serving layer's /debug/index and /debug/heat); sampling keeps the
	// converged query path allocation-free and inside its overhead budget.
	// 0 selects DefaultHeatSampleEvery; negative disables heat tracking
	// entirely.
	HeatSampleEvery int
}

// DefaultTau is the leaf-slice capacity used by the paper's evaluation.
const DefaultTau = 60

// DefaultHeatSampleEvery is the access-heat sampling period when
// Config.HeatSampleEvery is 0: one query in 16 records its slice touches,
// cheap enough to leave on in production while still resolving hot regions
// after a few hundred queries.
const DefaultHeatSampleEvery = 16

// Stats counts the work performed by the index since Build. All counters are
// cumulative and monotone; they exist to explain convergence behaviour.
// The exclusive path bumps plain integers (it is single-threaded by
// contract); the shared read path bumps one atomic, SharedQueries.
type Stats struct {
	Queries        int   // queries executed on the exclusive path
	Cracks         int   // two-way partition passes over some sub-array
	CrackedObjects int64 // total objects moved across all crack passes (upper bound: elements scanned)
	SlicesCreated  int   // slices materialized (all levels)
	SlicesRefined  int   // slices finalized with an exact MBB — the paper's convergence curve
	ObjectsTested  int64 // objects tested for final intersection
	ResultObjects  int64 // objects reported
	SharedQueries  int64 // queries answered on the optimistic shared read path (see shared.go)
	ScannedRows    int64 // rows read by key-range sweeps outside crack passes (lowerRange)
}

// slice is one node of QUASII's hierarchy. It covers data[lo:hi) and lives at
// one level (0 = x, 1 = y, 2 = z). Children, if any, partition [lo,hi) at the
// next level and are sorted by lo. Nodes are arena-allocated (see arena.go).
type slice struct {
	level    int
	lo, hi   int
	box      geom.Box // exact MBB once refined; a looser bound before
	children *sliceList
	// refined: box is the exact MBB and the slice is never cracked again —
	// size() <= tau[level], or every key in its dimension coincides.
	refined bool
	// heat counts sampled query touches (see Config.HeatSampleEvery).
	// Atomic because shared-path queries record concurrently; monotone for
	// the lifetime of the node. A slice replaced by refinement takes its
	// heat to the grave — converged slices, the ones heat is for, are never
	// replaced. Not persisted: a restored index starts cold.
	heat atomic.Int64
}

func (s *slice) size() int { return s.hi - s.lo }

// sliceList is an ordered list of sibling slices plus the bookkeeping needed
// to search it: the maximum box extent (in the level's dimension) among its
// members. The maximum is maintained monotonically — removing a wide slice
// does not shrink it — which is conservative but always correct.
type sliceList struct {
	slices []*slice
	maxExt float64
}

// lowerBound returns the index of the first slice whose lower bound in dim
// is >= key — the sibling binary search of the query fast path. Sibling Min
// is monotone because bands partition the lower corner and Min is exactly
// that coordinate's minimum; callers must have checked that maxExt is
// finite. The search is hand-rolled so the hot path carries no sort.Search
// closure.
func (l *sliceList) lowerBound(key float64, dim int) int {
	lo, hi := 0, len(l.slices)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l.slices[m].box.Min[dim] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (l *sliceList) noteExtent(s *slice, dim int) {
	if e := s.box.Max[dim] - s.box.Min[dim]; e > l.maxExt && !math.IsInf(e, 1) {
		l.maxExt = e
	} else if math.IsInf(e, 1) {
		// An open-ended slice can reach anywhere; fall back to scanning from
		// the start of the list when searching.
		l.maxExt = math.Inf(1)
	}
}

// Index is a QUASII index over a columnar data table it owns and reorganizes
// in place.
type Index struct {
	cfg   Config
	data  *colstore.Table
	root  *sliceList
	tau   [geom.Dims]int
	arena sliceArena // chunked allocator for slice nodes
	stats Stats

	// live is the head of the MVCC version chain (see version.go): pending
	// inserts, tombstones and the derived extent bookkeeping live in
	// immutable Version values published with an atomic swap. Readers load
	// it once and never block on writers; verMu serializes the writers.
	live  atomic.Pointer[Version]
	verMu sync.Mutex

	// epoch is the crack epoch: a monotonic counter bumped by every
	// *structural* mutation (crack, splice, finalization, child creation,
	// flush). Data changes (Append, Delete) publish versions instead and do
	// not move it, so the optimistic shared read path (shared.go) — which
	// validates the epoch to detect a racing structural writer — never
	// bails because of an update. Atomic because shared readers load it
	// without holding the caller's exclusive lock.
	epoch atomic.Uint64
	// sharedQueries counts queries answered on the shared read path. It is
	// the one counter that path maintains (atomically: shared queries run
	// concurrently with each other); the plain Stats counters stay exclusive
	// to the write path.
	sharedQueries atomic.Int64
	// remCracks is the crack budget of the query in flight: the number of
	// partition passes it may still perform. -1 means unlimited (the
	// default); 0 makes refine leave slices uncracked, to be finished by
	// later queries, with correctness preserved by scanning the unrefined
	// ranges. Set by QueryBudgeted, reset to -1 afterwards.
	remCracks int

	// heatEvery is the resolved access-heat sampling period (0 = disabled);
	// heatTick is the query counter it divides. The tick is atomic because
	// shared-path queries sample concurrently; recordHeat caches the
	// decision for the exclusive query in flight (single-threaded under the
	// caller's write lock, like remCracks).
	heatEvery  int64
	heatTick   atomic.Int64
	recordHeat bool

	// flush is Flush's per-leaf scratch, reused across flushes. It sits
	// last, clear of the fields the query and update paths touch.
	flush flushScratch
}

// heatEveryFor resolves Config.HeatSampleEvery to the stored period.
func heatEveryFor(cfg Config) int64 {
	switch {
	case cfg.HeatSampleEvery < 0:
		return 0
	case cfg.HeatSampleEvery == 0:
		return DefaultHeatSampleEvery
	default:
		return int64(cfg.HeatSampleEvery)
	}
}

// sampleHeat decides whether the query now starting records slice heat.
// Safe to call concurrently (shared-path queries sample independently).
func (ix *Index) sampleHeat() bool {
	e := ix.heatEvery
	if e == 0 {
		return false
	}
	return ix.heatTick.Add(1)%e == 0
}

// touchHeat records one sampled query touch on s.
func (s *slice) touchHeat(record bool) {
	if record {
		s.heat.Add(1)
	}
}

// New builds a QUASII index over data. The objects are ingested into the
// index's columnar lanes (the input slice is not retained); queries
// reorganize the lanes in place. Building is O(n) — it only copies the
// coordinates, computes the per-dimension maximum extents and the τ
// thresholds; all indexing work happens during queries.
func New(data []geom.Object, cfg Config) *Index {
	if cfg.Tau < 1 {
		cfg.Tau = DefaultTau
	}
	ix := &Index{
		cfg:       cfg,
		data:      colstore.FromObjects(data),
		remCracks: -1,
		heatEvery: heatEveryFor(cfg),
	}
	maxExt := ix.data.MaxExtents()
	dataMBB := ix.data.MBB(0, ix.data.Len())
	ix.computeTaus()
	if len(data) == 0 {
		ix.root = &sliceList{}
	} else {
		ix.newRoot(dataMBB)
	}
	ix.initVersion(nil, colstore.Tombstones{}, maxExt, dataMBB)
	return ix
}

// newRoot starts the hierarchy with one unrefined slice over every row: New
// calls it over a non-empty table, and Flush when its merge finds the
// hierarchy empty (an index built over no objects, or one whose every row
// was deleted) but rows to index. Its box is the data's MBB, which must
// contain every row: refine then reads the slice's x bounds from the box
// instead of sweeping the key lane. Snapshots from older versions carry a
// universe-box root; refine still sweeps for those, and Flush merges into
// it like into any other.
func (ix *Index) newRoot(box geom.Box) {
	initial := ix.newSlice(0, 0, ix.data.Len(), box)
	ix.root = &sliceList{slices: []*slice{initial}}
	ix.root.noteExtent(initial, 0)
	ix.stats.SlicesCreated++
}

// computeTaus derives per-level thresholds from the bottom-level capacity:
// r = ceil((n/τ)^(1/d)), τ_{l-1} = r·τ_l (paper, Eq. 1).
func (ix *Index) computeTaus() {
	tau := ix.cfg.Tau
	n := ix.data.Len()
	parts := float64(n) / float64(tau)
	if parts < 1 {
		parts = 1
	}
	r := int(math.Ceil(math.Cbrt(parts)))
	if r < 1 {
		r = 1
	}
	ix.tau[geom.Dims-1] = tau
	for l := geom.Dims - 2; l >= 0; l-- {
		ix.tau[l] = ix.tau[l+1] * r
	}
}

// Len returns the number of live objects at the current version: indexed
// plus appended, minus tombstoned ones. Safe to call concurrently with
// writers (it reads one immutable version).
func (ix *Index) Len() int {
	v := ix.live.Load()
	return v.table.Len() + len(v.pending) - v.deleted.Len()
}

// DataMBB returns a box containing every object at the current version,
// rows and pending ones. It only grows: deletes and Flush never shrink it.
// Load refuses a snapshot whose recorded box does not contain its objects.
// Safe to call concurrently with writers.
func (ix *Index) DataMBB() geom.Box { return ix.live.Load().dataMBB }

// Stats returns a snapshot of the cumulative work counters. SharedQueries is
// folded in from its atomic home, so Stats may be called under shared access
// concurrently with shared-path queries.
func (ix *Index) Stats() Stats {
	st := ix.stats
	st.SharedQueries = ix.sharedQueries.Load()
	return st
}

// Tau returns the refinement threshold at the given level (0 = x).
func (ix *Index) Tau(level int) int { return ix.tau[level] }

// Query returns the IDs of all objects whose boxes intersect q, appending
// them to out. As a side effect it refines the index around q. On a
// converged index the call is allocation-free when out has capacity.
func (ix *Index) Query(q geom.Box, out []int32) []int32 {
	v := ix.live.Load()
	start := len(out)
	out = ix.queryPositions(q, out)
	// The traversal collects array positions (valid for the whole call:
	// refinement only reorders ranges not yet scanned); translate to IDs in
	// place, filtering tombstoned objects.
	ids := ix.data.ID
	if v.deleted.Len() == 0 {
		for i := start; i < len(out); i++ {
			out[i] = ids[out[i]]
		}
	} else {
		w := start
		for i := start; i < len(out); i++ {
			id := ids[out[i]]
			if v.deleted.Has(id) {
				continue
			}
			out[w] = id
			w++
		}
		out = out[:w]
	}
	// Appended objects are unindexed until Flush; scan them linearly,
	// skipping any that were tombstoned while still pending.
	v.eachPending(q, func(id int32) { out = append(out, id) })
	return out
}

// QueryBudgeted answers q exactly like Query but performs at most budget
// crack (partition) passes, leaving the remaining refinement to later
// queries: once the budget is spent, oversized slices are answered by
// scanning their rows instead of cracking them, so results stay exact while
// the mutation work per call is bounded. This is the paper's incremental
// philosophy applied to lock hold time — the sharded engine uses it to keep
// exclusive sections short so concurrent shared readers never stall behind a
// cold region. A negative budget means unlimited (identical to Query).
func (ix *Index) QueryBudgeted(q geom.Box, out []int32, budget int) []int32 {
	ix.remCracks = max(budget, -1)
	out = ix.Query(q, out)
	ix.remCracks = -1
	return out
}

// queryPositions is Query's engine: it appends the data-array positions of
// matching objects instead of their IDs. It is also the refining position
// probe of KNN and delete (positionsRefining in knn.go).
func (ix *Index) queryPositions(q geom.Box, out []int32) []int32 {
	ix.stats.Queries++
	if ix.data.Len() == 0 || q.IsEmpty() {
		return out
	}
	ix.recordHeat = ix.sampleHeat()
	return ix.queryList(q, ix.root, 0, out)
}

// queryList implements Algorithm 1 of the paper on one sibling list.
func (ix *Index) queryList(q geom.Box, list *sliceList, dim int, out []int32) []int32 {
	// Binary search for the first slice that could overlap q in this
	// dimension, extending the search key by the maximum slice extent. An
	// open-ended sibling (infinite maxExt) forces a scan from the start,
	// relying on the per-slice box test.
	fastPath := !math.IsInf(list.maxExt, 1)
	var i int
	if fastPath {
		i = list.lowerBound(q.Min[dim]-list.maxExt, dim)
	}

	// Replacements produced by refinement: original index -> new slices.
	var replaced map[int][]*slice

	for ; i < len(list.slices); i++ {
		s := list.slices[i]
		if fastPath && s.box.Min[dim] > q.Max[dim] {
			break
		}
		if !s.box.Intersects(q) {
			continue
		}
		// Steady-state fast path: a slice already meeting its threshold — or
		// finalized above it because its keys all coincide — is never
		// replaced, so the converged query path performs no refinement
		// bookkeeping (and no allocation).
		if s.refined || s.size() <= ix.tau[dim] {
			ix.finalize(s)
			if !s.box.Intersects(q) {
				continue // the exact MBB ruled q out
			}
			out = ix.processSlice(s, q, dim, out)
			continue
		}
		refinedSlices := ix.refine(s, q)
		for _, t := range refinedSlices {
			if !t.box.Intersects(q) {
				continue
			}
			out = ix.processSlice(t, q, dim, out)
		}
		if len(refinedSlices) != 1 || refinedSlices[0] != s {
			if replaced == nil {
				replaced = make(map[int][]*slice)
			}
			replaced[i] = refinedSlices
		}
	}

	if replaced != nil {
		ix.splice(list, replaced, dim)
	}
	return out
}

// processSlice scans a bottom-level slice or descends into the next level.
func (ix *Index) processSlice(s *slice, q geom.Box, dim int, out []int32) []int32 {
	s.touchHeat(ix.recordHeat)
	if dim == geom.Dims-1 {
		return ix.scanSlice(s, q, out)
	}
	if s.children == nil {
		ix.createDefaultChild(s)
	}
	return ix.queryList(q, s.children, dim+1, out)
}

// scanSlice tests every object of a bottom-level slice against q using the
// columnar branch-light interval filter.
func (ix *Index) scanSlice(s *slice, q geom.Box, out []int32) []int32 {
	before := len(out)
	out = ix.data.ScanIntersect(s.lo, s.hi, q, out)
	ix.stats.ObjectsTested += int64(s.size())
	ix.stats.ResultObjects += int64(len(out) - before)
	return out
}

// createDefaultChild gives a refined slice a single child covering its whole
// range at the next level, to be refined by subsequent processing.
func (ix *Index) createDefaultChild(s *slice) {
	child := ix.newSlice(s.level+1, s.lo, s.hi, s.box)
	// The parent's box is a valid (possibly loose) bound for the child. The
	// child is final only if it already meets its own level's threshold.
	child.refined = s.refined && child.size() <= ix.tau[child.level]
	s.children = &sliceList{slices: []*slice{child}}
	s.children.noteExtent(child, child.level)
	ix.epoch.Add(1)
	ix.stats.SlicesCreated++
}

// splice replaces refined entries of list with their replacements, keeping
// the list sorted by lo. Replacement slices occupy exactly the replaced
// slice's [lo,hi) range and are sorted, so order is preserved without a full
// sort (the paper re-sorts; splicing is the equivalent O(n) merge).
func (ix *Index) splice(list *sliceList, replaced map[int][]*slice, dim int) {
	grown := 0
	for _, r := range replaced {
		grown += len(r) - 1
	}
	out := make([]*slice, 0, len(list.slices)+grown)
	for i, s := range list.slices {
		if r, ok := replaced[i]; ok {
			out = append(out, r...)
			continue
		}
		out = append(out, s)
	}
	list.slices = out
	// Recompute the max slice extent from scratch: replacing a wide slice
	// with narrow fragments should shrink the search extension, and the
	// initial slice's infinite extent must not stick around.
	list.maxExt = 0
	for _, s := range out {
		list.noteExtent(s, dim)
	}
	ix.epoch.Add(1)
}

// refine implements Algorithm 2 for slice s and query q: split cracks s on
// the extended query bounds in its dimension and splits the fragments that
// still exceed τ and overlap the query until they meet the threshold. It
// returns the slices replacing s, sorted by lo; a slice already meeting its
// threshold, or one the crack budget leaves uncracked, is returned alone.
func (ix *Index) refine(s *slice, q geom.Box) []*slice {
	dim := s.level
	// Extended crack bounds: every object intersecting q has its lower
	// corner within [lo, hi] — at most the maximum extent below q, and never
	// above it. The slice's keys lie in its box's range in dim: exact for
	// fragments, the data MBB for the root, infinite only for a universe-box
	// root restored from an older snapshot (split then sweeps).
	lo := q.Min[dim] - ix.live.Load().maxExt[dim]
	// Every slice but the uncracked root, the one over every row, is a band
	// an earlier query's cuts left behind.
	recracked := s.size() < ix.data.Len()
	return ix.split(s, lo, q.Max[dim], s.box.Min[dim], math.Nextafter(s.box.Max[dim], math.Inf(1)),
		recracked, make([]*slice, 0, 4))
}

// split is Algorithm 2's one executor. Slice s holds keys in [kMin, keyEnd)
// of its dimension; split cuts it as planCuts directs, then splits each
// resulting band that still exceeds τ and overlaps the extended query range
// [lo, hi] the same way, carrying the band's exclusive key bound — a band's
// is the cut above it, the top band's its parent's — so a level costs its
// partition passes and no key-range sweep. Only when that range is infinite,
// loose enough for a cut to leave one side empty, or about to be cut by the
// last budgeted pass, is the exact range read, once. recracked says s was
// left by an earlier query (see planCuts). The slices replacing s are
// appended to out in lo order.
func (ix *Index) split(s *slice, lo, hi, kMin, keyEnd float64, recracked bool, out []*slice) []*slice {
	dim := s.level
	if s.refined || s.size() <= ix.tau[dim] {
		ix.finalize(s)
		return append(out, s)
	}
	// Crack budget exhausted: leave the slice uncracked. The caller still
	// answers correctly — processSlice descends (creating pass-through
	// children) until the bottom level scans the whole range — and a later
	// query with fresh budget finishes the refinement.
	if ix.remCracks == 0 {
		return append(out, s)
	}
	var bands [3]band
	n := 0
	// With one budgeted pass left, a cut that left one side empty would
	// spend the budget and return s unchanged, so every later call would
	// plan the same cut: the last pass is planned inside the exact range.
	if ix.remCracks != 1 && !math.IsInf(kMin, -1) && !math.IsInf(keyEnd, 1) {
		cuts, k := ix.planCuts(s.size(), dim, kMin, keyEnd, lo, hi, recracked)
		bands, n = ix.applyCuts(s, keyEnd, cuts[:k])
	}
	if n < 2 {
		// No finite key range, one loose enough that the cuts left a single
		// band, or the last budgeted pass: read the exact range and plan
		// (again) inside it.
		kMin, kMax := ix.lowerRange(s, dim)
		if kMax <= kMin {
			// All representative coordinates coincide: the slice cannot be
			// split spatially. Accept it as final (degenerate duplicate-heavy
			// data); its refined flag keeps later queries from cracking it.
			ix.finalize(s)
			return append(out, s)
		}
		if ix.remCracks == 0 {
			return append(out, s)
		}
		// Inside the exact range every planned first cut leaves both sides
		// non-empty.
		keyEnd = math.Nextafter(kMax, math.Inf(1))
		cuts, k := ix.planCuts(s.size(), dim, kMin, keyEnd, lo, hi, recracked)
		bands, n = ix.applyCuts(s, keyEnd, cuts[:k])
	}
	for _, b := range bands[:n] {
		f := ix.newSlice(dim, b.lo, b.hi, s.box)
		f.box.Min[dim], f.box.Max[dim] = b.Min, b.Max
		ix.stats.SlicesCreated++
		switch {
		case f.size() <= ix.tau[dim]:
			ix.finalizeFragment(f, dim)
			out = append(out, f)
		case b.Max >= lo && b.Min <= hi:
			out = ix.split(f, lo, hi, b.Min, b.keyEnd, recracked, out)
		default:
			out = append(out, f)
		}
	}
	return out
}

// planCuts is Algorithm 2's one cut planner: for a band of size rows whose
// keys lie in the finite range [kMin, keyEnd), refined toward the extended
// query range [lo, hi], it returns up to two cuts in the order they are to
// be made (the first n of cuts). Each cut c sends keys < c below it.
func (ix *Index) planCuts(size, dim int, kMin, keyEnd, lo, hi float64, recracked bool) (cuts [2]float64, n int) {
	// A band an earlier query left, over 2·τ₀ rows (τ₀ the top level's
	// threshold), is first cut at its key-range centre — the data-driven
	// centre cut of stochastic cracking (Halim, Idreos, Karras & Yap, PVLDB
	// 2012) — and split re-plans the halves the query overlaps. A sequential
	// sweep then peels its slabs off bands of at most 2·τ₀ rows instead of
	// re-cracking one shrinking remainder, and query #1, which cracks the
	// root, pays nothing.
	if recracked && size > 2*ix.tau[0] {
		return [2]float64{artificialCut(kMin, keyEnd)}, 1
	}
	// The query's bounds, where they fall strictly inside the range; hiExcl
	// makes the middle band inclusive of hi, matching the paper's [xl, xu].
	hiExcl := math.Nextafter(hi, math.Inf(1))
	loIn := kMin < lo && lo < keyEnd
	hiIn := kMin < hiExcl && hiExcl < keyEnd
	switch {
	case loIn && hiIn && ix.remCracks != 1:
		// Crack-in-three (Idreos, Kersten & Manegold, CIDR 2007): the first
		// pass cuts at whichever bound leaves the smaller remainder, so the
		// second re-reads the smaller side. With a single budgeted pass left
		// the lower cut below goes alone, so a budget is never overdrawn.
		if hiExcl-kMin < keyEnd-lo {
			return [2]float64{hiExcl, lo}, 2
		}
		return [2]float64{lo, hiExcl}, 2
	case loIn:
		return [2]float64{lo}, 1
	case hiIn:
		return [2]float64{hiExcl}, 1
	}
	// The query contains the range: artificial refinement's midpoint split.
	return [2]float64{artificialCut(kMin, keyEnd)}, 1
}

// artificialCut picks the midpoint split coordinate for the key range
// [lo, hi). The paper floors the midpoint; we keep the untruncated midpoint
// since the data domain is continuous. The halves are summed because lo+hi
// can overflow, an infinite hi counts as the largest float, and a cut that
// is not above lo (adjacent floats, or an infinite lo) is moved just past
// it: either would put every row on one side.
func artificialCut(lo, hi float64) float64 {
	c := lo/2 + min(hi, math.MaxFloat64)/2
	if !(c > lo) {
		c = math.Nextafter(lo, math.Inf(1))
	}
	return c
}

// band is a run of rows [lo, hi) left by applyCuts: the exact bounds of its
// rows in the cut dimension (least lower corner, greatest upper one) and
// the exclusive upper bound of their keys.
type band struct {
	lo, hi int
	colstore.Bounds
	keyEnd float64
}

// applyCuts makes the planned partition passes over s's rows, whose keys
// lie below keyEnd. Each cut partitions the band whose key range holds it,
// so a second cut re-reads only one side of the first. It returns the
// non-empty bands in lo order.
func (ix *Index) applyCuts(s *slice, keyEnd float64, cuts []float64) (out [3]band, n int) {
	all := [3]band{{lo: s.lo, hi: s.hi, keyEnd: keyEnd}}
	k := 1
	for _, c := range cuts {
		i := 0
		for i < k-1 && all[i].keyEnd <= c {
			i++
		}
		b := all[i]
		m, left, right := ix.partition(b.lo, b.hi, s.level, c)
		copy(all[i+2:k+1], all[i+1:k])
		all[i] = band{b.lo, m, left, c}
		all[i+1] = band{m, b.hi, right, b.keyEnd}
		k++
	}
	for _, b := range all[:k] {
		if b.lo < b.hi {
			out[n] = b
			n++
		}
	}
	return out, n
}

// partition delegates to the columnar cracking kernel: it reorders rows
// [lo, hi) so rows with representative coordinate < pivot precede the rest,
// returning the split position together with the exact bounds of both bands
// in dim.
func (ix *Index) partition(lo, hi int, dim int, pivot float64) (mid int, left, right colstore.Bounds) {
	ix.stats.Cracks++
	ix.stats.CrackedObjects += int64(hi - lo)
	if ix.remCracks > 0 {
		ix.remCracks--
	}
	ix.epoch.Add(1)
	return ix.data.Partition(lo, hi, dim, pivot, colstore.KeyLower)
}

// finalize marks s as fully refined in its dimension and computes its exact
// MBB (the paper computes full MBBs only for completely refined slices).
func (ix *Index) finalize(s *slice) {
	if s.refined {
		return
	}
	s.box = ix.data.MBB(s.lo, s.hi)
	s.refined = true
	ix.stats.SlicesRefined++
	ix.epoch.Add(1)
}

// finalizeFragment finalizes a fragment fresh out of a crack pass: its box
// is already exact in the cracked dimension (the partition kernel tracked
// those bounds in-pass), so only the other dimensions' lanes are reduced.
func (ix *Index) finalizeFragment(f *slice, dim int) {
	for d := 0; d < geom.Dims; d++ {
		if d == dim {
			continue
		}
		f.box.Min[d], f.box.Max[d] = ix.data.LaneBounds(d, f.lo, f.hi)
	}
	f.refined = true
	ix.stats.SlicesRefined++
	// No epoch bump: the fragment is not yet reachable from the hierarchy
	// (its partition pass already bumped, and splice will bump on attach).
}

// --- Introspection and invariant checking (used by tests and tools) ---

// NumSlices returns the total number of slices currently materialized.
func (ix *Index) NumSlices() int {
	var n int
	var walk func(l *sliceList)
	walk = func(l *sliceList) {
		for _, s := range l.slices {
			n++
			if s.children != nil {
				walk(s.children)
			}
		}
	}
	if ix.root != nil {
		walk(ix.root)
	}
	return n
}

// CheckInvariants validates the structural invariants of the index:
//
//  1. sibling slices are sorted by lo and partition their parent's range,
//  2. children cover exactly their parent's [lo,hi),
//  3. every slice's box contains all its objects in every dimension (a
//     query skips a slice on its box alone),
//  4. where a sibling list's maxExt is finite, it bounds every sibling's
//     extent and sibling Min is non-decreasing (the binary-search
//     preconditions of lowerBound).
//
// The comparisons are written so a NaN bound or coordinate fails them: Load
// relies on this check to refuse any hierarchy a query could walk wrongly.
// It returns an error describing the first violation found.
func (ix *Index) CheckInvariants() error {
	if ix.root == nil {
		return nil
	}
	_, err := ix.checkList(ix.root, 0, ix.data.Len(), 0)
	return err
}

// checkList checks one sibling list over rows [lo, hi) and returns those
// rows' MBB. A slice's MBB is the union of its children's, so every row's
// lanes are read once, by the deepest slice holding it.
func (ix *Index) checkList(l *sliceList, lo, hi, level int) (geom.Box, error) {
	mbb := geom.EmptyBox()
	if len(l.slices) == 0 && lo != hi {
		return mbb, fmt.Errorf("level %d: empty slice list for non-empty range [%d,%d)", level, lo, hi)
	}
	pos := lo
	for k, s := range l.slices {
		if s.level != level {
			return mbb, fmt.Errorf("slice %d at level %d, want %d", k, s.level, level)
		}
		if s.lo != pos {
			return mbb, fmt.Errorf("level %d: slice %d starts at %d, want %d (gap/overlap)", level, k, s.lo, pos)
		}
		if s.hi < s.lo {
			return mbb, fmt.Errorf("level %d: slice %d has inverted range [%d,%d)", level, k, s.lo, s.hi)
		}
		pos = s.hi
		var sb geom.Box
		var err error
		if s.children == nil {
			sb = ix.data.MBB(s.lo, s.hi)
		} else if sb, err = ix.checkList(s.children, s.lo, s.hi, level+1); err != nil {
			return mbb, err
		}
		for d := 0; d < geom.Dims; d++ {
			if !(s.box.Min[d] <= sb.Min[d] && sb.Max[d] <= s.box.Max[d]) {
				return mbb, fmt.Errorf("level %d: slice %d box %v does not contain its objects' MBB %v", level, k, s.box, sb)
			}
		}
		if !math.IsInf(l.maxExt, 1) && (!(s.box.Max[level]-s.box.Min[level] <= l.maxExt) ||
			k > 0 && !(l.slices[k-1].box.Min[level] <= s.box.Min[level])) {
			return mbb, fmt.Errorf("level %d: slice %d box %v breaks the sibling search (max extent %g)", level, k, s.box, l.maxExt)
		}
		mbb = mbb.Extend(sb)
	}
	if pos != hi {
		return mbb, fmt.Errorf("level %d: slices end at %d, want %d", level, pos, hi)
	}
	return mbb, nil
}

// lowerRange returns the min and max lower corner of s's objects in
// dimension dim (a lane scan, counted in Stats.ScannedRows; used when a
// slice's box does not bound its keys finitely, or too loosely to cut).
func (ix *Index) lowerRange(s *slice, dim int) (lo, hi float64) {
	ix.stats.ScannedRows += int64(s.size())
	return ix.data.KeyRange(s.lo, s.hi, dim)
}
