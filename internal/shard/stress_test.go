// Concurrency stress tests for the two-path read/write engine. They are
// written to run under -race: many goroutines hammer one shard (the worst
// case for the RWMutex scheduler — no inter-shard parallelism to hide
// behind) with queries, KNN probes, inserts, deletes and flushes, and the
// structure is invariant-checked after every quiesced round.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/scan"
	"repro/internal/workload"
)

// TestStressSingleShard runs concurrent Query/KNN/Insert/Delete/Flush
// against a single-shard engine, then — after every round quiesces —
// sweeps CheckInvariants and validates queries against a scan oracle over
// the live object set.
func TestStressSingleShard(t *testing.T) {
	const (
		n       = 4000
		rounds  = 4
		readers = 4
		writers = 2
		queries = 150
	)
	base := dataset.Uniform(n, 11)
	ix := New(dataset.Clone(base), Config{Shards: 1})
	boxes := workload.Uniform(dataset.Universe(), queries, 1e-3, 12)

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		var qerr atomic.Value
		// Readers drain the workload; half of them also probe KNN.
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				var buf []int32
				for i := r; i < len(boxes); i += readers {
					buf = ix.Query(boxes[i], buf[:0])
					if r%2 == 0 {
						if _, err := ix.KNN(boxes[i].Center(), 5); err != nil {
							qerr.Store(err)
							return
						}
					}
				}
			}(r)
		}
		// Writers run insert→delete cycles on round-local IDs; one of them
		// flushes periodically.
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(boxes); i += writers {
					id := int32(1_000_000 + round*10_000 + i)
					obj := geom.Object{Box: geom.BoxAt(boxes[i].Center(), 1), ID: id}
					if err := ix.Insert(obj); err != nil {
						qerr.Store(err)
						return
					}
					if _, err := ix.Delete(id, obj.Box); err != nil {
						qerr.Store(err)
						return
					}
					if w == 0 && i%40 == 0 {
						if err := ix.Flush(); err != nil {
							qerr.Store(err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if err := qerr.Load(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("round %d: invariants violated: %v", round, err)
		}
		// Quiesced oracle sweep: every write cycle deleted its object, so
		// the live set is exactly the base dataset again (modulo pending
		// compaction, which queries must see through).
		if err := ix.Flush(); err != nil {
			t.Fatalf("round %d: flush: %v", round, err)
		}
		sc := scan.New(dataset.Clone(base))
		for i, q := range boxes[:20] {
			got := append([]int32(nil), ix.Query(q, nil)...)
			want := sc.Query(q, nil)
			if err := sameIDSet(got, want); err != nil {
				t.Fatalf("round %d, query %d: %v", round, i, err)
			}
		}
	}
}

// TestStressMultiShard is the same storm across several shards, with
// out-of-tile inserts that the nearest tile absorbs by growing its live
// bounds, exercising the fan-out path and cross-shard routing under -race.
func TestStressMultiShard(t *testing.T) {
	const n = 6000
	base := dataset.Uniform(n, 13)
	ix := New(dataset.Clone(base), Config{Shards: 4, Workers: 2})
	boxes := workload.Uniform(dataset.Universe(), 120, 1e-3, 14)
	outside := geom.BoxAt(geom.Point{-5000, -5000, -5000}, 2) // beyond every tile

	var wg sync.WaitGroup
	var qerr atomic.Value
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf []int32
			for i := r; i < len(boxes); i += 3 {
				buf = ix.Query(boxes[i], buf[:0])
			}
			_ = ix.QueryBatch(boxes[:16])
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			id := int32(2_000_000 + i)
			box := outside
			if i%2 == 0 {
				box = geom.BoxAt(boxes[i%len(boxes)].Center(), 1)
			}
			if err := ix.Insert(geom.Object{Box: box, ID: id}); err != nil {
				qerr.Store(err)
				return
			}
			if _, err := ix.Delete(id, box); err != nil {
				qerr.Store(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := qerr.Load(); err != nil {
		t.Fatal(err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := scan.New(dataset.Clone(base))
	for i, q := range boxes[:20] {
		if err := sameIDSet(ix.Query(q, nil), sc.Query(q, nil)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

// TestSharedPathEngaged verifies that a converged engine actually answers
// on the shared read path (SharedQueries counts).
func TestSharedPathEngaged(t *testing.T) {
	base := dataset.Uniform(3000, 15)
	boxes := workload.Uniform(dataset.Universe(), 64, 1e-3, 16)

	ix := New(dataset.Clone(base), Config{Shards: 2})
	ix.Complete()
	for _, q := range boxes {
		ix.Query(q, nil)
	}
	st := ix.Stats()
	if st.Core.SharedQueries == 0 {
		t.Fatal("converged engine answered no queries on the shared path")
	}
	if st.Core.Queries != 0 {
		t.Fatalf("converged engine still ran %d exclusive queries", st.Core.Queries)
	}
}

// TestCrackBudgetBoundsExclusiveWork verifies the budget knob: with a tiny
// budget the engine still answers exactly, and the per-query crack counts
// stay bounded while refinement progresses across queries.
func TestCrackBudgetBoundsExclusiveWork(t *testing.T) {
	base := dataset.Uniform(5000, 17)
	boxes := workload.Uniform(dataset.Universe(), 80, 1e-3, 18)
	sc := scan.New(dataset.Clone(base))

	ix := New(dataset.Clone(base), Config{Shards: 1, CrackBudget: 2})
	prev := 0
	for i, q := range boxes {
		if err := sameIDSet(ix.Query(q, nil), sc.Query(q, nil)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		st := ix.Stats()
		if d := st.Core.Cracks - prev; d > 2 {
			// The budget is hard: with one pass left a three-way crack
			// degrades to its lower cut (core refine).
			t.Fatalf("query %d performed %d crack passes under budget 2", i, d)
		}
		prev = st.Core.Cracks
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func sameIDSet(got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d results, want %d", len(got), len(want))
	}
	seen := make(map[int32]int, len(got))
	for _, id := range got {
		seen[id]++
	}
	for _, id := range want {
		if seen[id] == 0 {
			return fmt.Errorf("missing ID %d", id)
		}
		seen[id]--
	}
	return nil
}
