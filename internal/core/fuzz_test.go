package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/scan"
)

// FuzzQueryEquivalence drives QUASII with fuzzer-chosen dataset shapes, τ
// and query streams, requiring exact agreement with Scan, intact structural
// invariants, and no query making more crack passes than its budget. Its
// bool argument once switched the random pre-cut on; it is read and ignored,
// so every existing corpus entry still decodes. Run
// `go test -fuzz=FuzzQueryEquivalence ./internal/core` to explore beyond the
// seed corpus.
func FuzzQueryEquivalence(f *testing.F) {
	for _, c := range fuzzSeeds[:4] {
		f.Add(c.seed, c.n, c.tau, c.ignored)
	}
	f.Fuzz(runFuzzEquivalence)
}

// fuzzBudgets are the crack budgets runFuzzEquivalence's queries cycle
// through: unlimited, none, and a few passes.
var fuzzBudgets = []int{-1, 0, 1, 2, 64}

// runFuzzEquivalence is the body of FuzzQueryEquivalence, shared with
// TestEquivalenceFuzzSeeds. Each query runs through QueryBudgeted, the
// shard engine's entry point, with a budget derived from the seed and the
// query's position rather than drawn from the stream's rng, so a seed keeps
// its data and query stream. Between every few queries it runs an update
// round — appends, deletes of indexed and still-pending objects, and
// usually a Flush merging them into the hierarchy — and checks the
// structural invariants after every Flush.
func runFuzzEquivalence(t *testing.T, seed int64, n, tau int, _ bool) {
	if n < 0 {
		n = -n
	}
	n = n%1000 + 1
	if tau < 1 {
		tau = 1
	}
	tau = tau%200 + 1

	rng := rand.New(rand.NewSource(seed))
	object := func(id int) geom.Object {
		var min, max geom.Point
		for d := 0; d < geom.Dims; d++ {
			min[d] = rng.Float64() * 1000
			max[d] = min[d] + rng.Float64()*rng.Float64()*200
		}
		return geom.Object{Box: geom.Box{Min: min, Max: max}, ID: int32(id)}
	}
	data := make([]geom.Object, n)
	for i := range data {
		data[i] = object(i)
	}
	live := dataset.Clone(data)
	nextID := n
	ix := New(dataset.Clone(data), Config{Tau: tau})
	var got, want []int32
	for qi := 0; qi < 25; qi++ {
		if qi%5 == 4 {
			for k := rng.Intn(n/10 + 3); k > 0; k-- {
				o := object(nextID)
				nextID++
				ix.Append(o)
				live = append(live, o)
			}
			for k := rng.Intn(n/10 + 3); k > 0 && len(live) > 0; k-- {
				i := rng.Intn(len(live))
				if !ix.Delete(live[i].ID, live[i].Box) {
					t.Fatalf("seed=%d: Delete(%d) found nothing", seed, live[i].ID)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if rng.Intn(4) > 0 {
				ix.Flush()
				if err := ix.CheckInvariants(); err != nil {
					t.Fatalf("seed=%d query %d: invariants after Flush: %v", seed, qi, err)
				}
			}
		}
		var a, b geom.Point
		for d := 0; d < geom.Dims; d++ {
			a[d] = rng.Float64()*1200 - 100
			b[d] = a[d] + rng.Float64()*300
		}
		q := geom.Box{Min: a, Max: b}
		budget := fuzzBudgets[(uint64(seed)+uint64(qi))%uint64(len(fuzzBudgets))]
		before := ix.Stats().Cracks
		got = sortedIDs(ix.QueryBudgeted(q, got[:0], budget))
		if passes := ix.Stats().Cracks - before; budget >= 0 && passes > budget {
			t.Fatalf("seed=%d query %d: %d crack passes over budget %d", seed, qi, passes, budget)
		}
		want = sortedIDs(scan.New(live).Query(q, want[:0]))
		if !equalIDs(got, want) {
			t.Fatalf("seed=%d n=%d tau=%d query %d: got %d results, want %d",
				seed, n, tau, qi, len(got), len(want))
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("seed=%d: invariants: %v", seed, err)
	}
}
