package quasii

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// BatchQuery executes many range queries against ix across worker
// goroutines, returning one result slice (object IDs) per query, in query
// order.
//
// The index must be safe for concurrent reads. The static indexes (RTree,
// Grid, SFC, Scan) are as they stand, and so is Sharded. The incremental
// indexes (QUASII, SFCracker, Mosaic) mutate during Query and must be
// wrapped with Synchronize first, which serializes them, so parallel batches
// pay off only on static structures and Sharded. workers <= 0 means
// GOMAXPROCS.
func BatchQuery(ix Index, queries []Box, workers int) [][]int32 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	results := make([][]int32, len(queries))
	if workers <= 1 {
		for i, q := range queries {
			results[i] = ix.Query(q, nil)
		}
		return results
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(queries) {
					return
				}
				results[i] = ix.Query(queries[i], nil)
			}
		}()
	}
	wg.Wait()
	return results
}
