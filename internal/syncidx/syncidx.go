// Package syncidx provides a mutex wrapper that makes any index safe for
// concurrent use. Incremental indexes (QUASII, SFCracker, Mosaic) mutate
// their internal structure during Query — that is the whole point of
// adaptive indexing — so even read-only workloads against them need mutual
// exclusion. Wrap serializes all queries with a single mutex; it favours
// simplicity and correctness over parallel scalability, which the paper does
// not address (its evaluation is single-threaded). It is the mutex baseline
// the sharded engine is measured against. Static indexes (RTree, Grid, SFC,
// Scan) need no wrapper: their Query mutates nothing, so concurrent callers
// may share one directly. For parallel scalability over incremental indexes,
// see internal/shard.
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

// Query answers a range query under the lock. Each caller passes its own
// out buffer; the wrapper shares none.
func (s *Index) Query(q geom.Box, out []int32) []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Query(q, out)
}
