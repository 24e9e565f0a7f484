// Package syncidx provides a mutex wrapper that makes any index safe for
// concurrent use. Incremental indexes (QUASII, SFCracker, Mosaic) mutate
// their internal structure during Query — that is the whole point of
// adaptive indexing — so even read-only workloads against them need mutual
// exclusion. Wrap serializes all queries with a single mutex; it favours
// simplicity and correctness over parallel scalability, which the paper does
// not address (its evaluation is single-threaded). RWrap is the read-write
// variant for static indexes, whose read-only queries may run concurrently.
// For parallel scalability over incremental indexes, see internal/shard.
package syncidx

import (
	"sync"

	"repro/internal/geom"
)

// Queryable is the minimal index interface the wrapper serializes.
type Queryable interface {
	Len() int
	Query(q geom.Box, out []int32) []int32
}

// Index wraps an underlying index with a mutex.
type Index struct {
	mu    sync.Mutex
	inner Queryable
}

// Wrap returns a concurrency-safe view of ix. All accesses to ix must go
// through the wrapper from then on.
func Wrap(ix Queryable) *Index { return &Index{inner: ix} }

// Len returns the number of indexed objects.
func (s *Index) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Len()
}

// Query answers a range query under the lock. Unlike the raw indexes it
// allocates the result slice itself when out is nil, so concurrent callers
// do not share buffers by accident.
func (s *Index) Query(q geom.Box, out []int32) []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Query(q, out)
}

// RWIndex wraps a *static* index with a read-write mutex: queries take the
// read lock and run concurrently. It is ONLY correct for indexes whose Query
// does not mutate internal state — RTree, Grid, SFC and Scan qualify; the
// incremental indexes (QUASII, SFCracker, Mosaic) crack their data on every
// query and must use Wrap instead.
type RWIndex struct {
	mu    sync.RWMutex
	inner Queryable
}

// RWrap returns a read-concurrent view of the static index ix. All accesses
// to ix must go through the wrapper from then on.
func RWrap(ix Queryable) *RWIndex { return &RWIndex{inner: ix} }

// Len returns the number of indexed objects under the read lock.
func (s *RWIndex) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Len()
}

// Query answers a range query under the read lock; concurrent readers
// proceed in parallel.
func (s *RWIndex) Query(q geom.Box, out []int32) []int32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Query(q, out)
}
