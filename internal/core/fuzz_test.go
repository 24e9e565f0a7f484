package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/scan"
)

// FuzzQueryEquivalence drives QUASII with fuzzer-chosen dataset shapes, τ,
// stochastic refinement and query streams, requiring exact agreement with
// Scan and intact structural invariants. Run `go test
// -fuzz=FuzzQueryEquivalence ./internal/core` to explore beyond the seed
// corpus.
func FuzzQueryEquivalence(f *testing.F) {
	for _, c := range fuzzSeeds[:4] {
		f.Add(c.seed, c.n, c.tau, c.stochastic)
	}
	f.Fuzz(runFuzzEquivalence)
}

// runFuzzEquivalence is the body of FuzzQueryEquivalence, shared with
// TestEquivalenceFuzzSeeds.
func runFuzzEquivalence(t *testing.T, seed int64, n, tau int, stochastic bool) {
	if n < 0 {
		n = -n
	}
	n = n%1000 + 1
	if tau < 1 {
		tau = 1
	}
	tau = tau%200 + 1

	rng := rand.New(rand.NewSource(seed))
	data := make([]geom.Object, n)
	for i := range data {
		var min, max geom.Point
		for d := 0; d < geom.Dims; d++ {
			min[d] = rng.Float64() * 1000
			max[d] = min[d] + rng.Float64()*rng.Float64()*200
		}
		data[i] = geom.Object{Box: geom.Box{Min: min, Max: max}, ID: int32(i)}
	}
	oracle := scan.New(data)
	ix := New(dataset.Clone(data), Config{Tau: tau, Stochastic: stochastic, Seed: seed})
	var got, want []int32
	for qi := 0; qi < 25; qi++ {
		var a, b geom.Point
		for d := 0; d < geom.Dims; d++ {
			a[d] = rng.Float64()*1200 - 100
			b[d] = a[d] + rng.Float64()*300
		}
		q := geom.Box{Min: a, Max: b}
		got = sortedIDs(ix.Query(q, got[:0]))
		want = sortedIDs(oracle.Query(q, want[:0]))
		if !equalIDs(got, want) {
			t.Fatalf("seed=%d n=%d tau=%d stoch=%v query %d: got %d results, want %d",
				seed, n, tau, stochastic, qi, len(got), len(want))
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("seed=%d: invariants: %v", seed, err)
	}
}
