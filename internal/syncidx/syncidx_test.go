package syncidx

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/scan"
	"repro/internal/workload"
)

// TestConcurrentQueriesOnQUASII hammers a wrapped QUASII index from many
// goroutines; run with -race. Each goroutine validates its own results
// against a private scan oracle.
func TestConcurrentQueriesOnQUASII(t *testing.T) {
	data := dataset.Uniform(5000, 401)
	ix := Wrap(core.New(dataset.Clone(data), core.Config{Tau: 32}))
	oracle := scan.New(data)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			queries := workload.Uniform(dataset.Universe(), 40, 1e-3, seed)
			var got, want []int32
			for qi, q := range queries {
				got = ix.Query(q, got[:0])
				want = oracle.Query(q, want[:0])
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if len(got) != len(want) {
					errs <- "length mismatch"
					return
				}
				for i := range got {
					if got[i] != want[i] {
						errs <- "content mismatch"
						return
					}
				}
				_ = qi
			}
		}(500 + int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestLenUnderConcurrency(t *testing.T) {
	data := dataset.Uniform(1000, 402)
	ix := Wrap(core.New(data, core.Config{}))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if ix.Len() != 1000 {
					panic("bad len")
				}
			}
		}()
	}
	wg.Wait()
}
