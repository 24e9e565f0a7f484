package shard

// BenchmarkQueryConvergedParallel is the headline measurement of the
// concurrent read-path engine: steady-state (converged) queries against ONE
// shard from a sweep of client goroutines, through the shared read path
// (the RWMutex engine) and through the exclusive-lock baseline every query
// serialized behind before this engine existed — the same QUASII index
// behind one global mutex (syncidx.Wrap). On a multi-core machine the
// shared variant scales with GOMAXPROCS while the exclusive baseline stays
// flat; the PR 4 line of CHANGES.md quotes a measured comparison, and
// benchmark/README.md's embed_parallel workload is its end-to-end successor.

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/syncidx"
	"repro/internal/workload"
)

func benchConvergedParallel(b *testing.B, exclusive bool, goroutines int) {
	const n = 200_000
	data := dataset.Uniform(n, 45)
	var ix interface {
		Query(q geom.Box, out []int32) []int32
	}
	if exclusive {
		c := core.New(data, core.Config{})
		c.Complete()
		ix = syncidx.Wrap(c)
	} else {
		s := New(data, Config{Shards: 1, Workers: 1})
		s.Complete()
		ix = s
	}
	queries := workload.Uniform(dataset.Universe(), 1024, 1e-4, 46)
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []int32
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				buf = ix.Query(queries[i%len(queries)], buf[:0])
			}
		}()
	}
	wg.Wait()
}

func BenchmarkQueryConvergedParallel(b *testing.B) {
	for _, bc := range []struct {
		name       string
		exclusive  bool
		goroutines int
	}{
		{"exclusive/g=1", true, 1},
		{"exclusive/g=2", true, 2},
		{"exclusive/g=4", true, 4},
		{"exclusive/g=8", true, 8},
		{"shared/g=1", false, 1},
		{"shared/g=2", false, 2},
		{"shared/g=4", false, 4},
		{"shared/g=8", false, 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			benchConvergedParallel(b, bc.exclusive, bc.goroutines)
		})
	}
}

// BenchmarkQueryMixedParallel measures the adaptive regime under
// concurrency: 8 goroutines drain a fresh workload against a cold single
// shard, so cracking write sections (crack-budgeted) interleave with
// shared reads over already-converged regions.
func BenchmarkQueryMixedParallel(b *testing.B) {
	const n = 100_000
	master := dataset.Uniform(n, 47)
	queries := workload.Uniform(dataset.Universe(), 512, 1e-3, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := New(dataset.Clone(master), Config{Shards: 1, Workers: 1})
		b.StartTimer()
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf []int32
				for {
					qi := int(next.Add(1)) - 1
					if qi >= len(queries) {
						return
					}
					buf = ix.Query(queries[qi], buf[:0])
				}
			}()
		}
		wg.Wait()
	}
}
