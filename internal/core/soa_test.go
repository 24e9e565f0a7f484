package core

// Equivalence coverage for the columnar (SoA) storage engine: the fuzz seed
// corpus of fuzz_test.go replayed deterministically, the oracle suite under
// the instrumentation-free configuration, and the allocation contract of
// the converged query path. Together with the runEquivalence tests in
// core_test.go (which now all run against the SoA-backed index), these pin
// the refactor to bit-identical results vs the seed's AoS behaviour.

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/scan"
	"repro/internal/workload"
)

// fuzzSeedCase is one seed of FuzzQueryEquivalence; the first four are its
// f.Add corpus.
type fuzzSeedCase struct {
	seed       int64
	n, tau     int
	stochastic bool
}

var fuzzSeeds = []fuzzSeedCase{
	{1, 100, 8, false},
	{2, 500, 1, true},
	{3, 50, 60, false},
	{4, 900, 16, true},
	// Extra corners beyond the fuzz corpus: τ=1 stochastic, big τ.
	{5, 777, 1, true},
	{6, 333, 200, false},
}

// TestEquivalenceFuzzSeeds replays the fuzz seed corpus as a deterministic
// test through the fuzz target's own body, so the corpus stays covered in
// plain `go test` runs.
func TestEquivalenceFuzzSeeds(t *testing.T) {
	for _, c := range fuzzSeeds {
		runFuzzEquivalence(t, c.seed, c.n, c.tau, c.stochastic)
	}
}

func TestEquivalenceDisableStats(t *testing.T) {
	data := dataset.Uniform(4000, 71)
	queries := workload.Uniform(dataset.Universe(), 120, 1e-3, 72)
	runEquivalence(t, data, queries, Config{Tau: 32, DisableStats: true})
}

func TestDisableStatsKeepsCountersZero(t *testing.T) {
	data := dataset.Uniform(2000, 73)
	ix := New(dataset.Clone(data), Config{DisableStats: true})
	for _, q := range workload.Uniform(dataset.Universe(), 40, 1e-3, 74) {
		ix.Query(q, nil)
	}
	if st := ix.Stats(); st != (Stats{}) {
		t.Fatalf("counters moved despite DisableStats: %+v", st)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConvergedQueryDoesNotAllocate pins the tentpole's allocation contract:
// once the index is fully refined, Query with a pre-sized output buffer must
// not allocate.
func TestConvergedQueryDoesNotAllocate(t *testing.T) {
	data := dataset.Uniform(50000, 75)
	ix := New(dataset.Clone(data), Config{})
	ix.Complete()
	queries := workload.Uniform(dataset.Universe(), 64, 1e-4, 76)
	out := make([]int32, 0, 4096)
	// Warm up once (first touches may finalize default children).
	for _, q := range queries {
		out = ix.Query(q, out[:0])
	}
	avg := testing.AllocsPerRun(50, func() {
		for _, q := range queries {
			out = ix.Query(q, out[:0])
		}
	})
	if avg != 0 {
		t.Fatalf("converged Query allocates %.1f times per %d queries, want 0", avg, len(queries))
	}
}

// TestSoAOrderInsensitivity: the branch-free crack kernel places rows within
// a band in a different physical order than the seed's two-pointer kernel.
// QUASII treats bands as unordered sets, so results, invariants, and
// persistence round-trips must be unaffected — this exercises a workload
// with deletes and appends on top to cover the compaction paths too.
func TestSoAOrderInsensitivity(t *testing.T) {
	data := dataset.Uniform(3000, 77)
	ix := New(dataset.Clone(data), Config{Tau: 24})
	oracle := scan.New(data)
	queries := workload.Uniform(dataset.Universe(), 60, 1e-3, 78)
	for _, q := range queries[:30] {
		ix.Query(q, nil)
	}
	// Delete a handful of objects, append replacements, flush, and re-check.
	for id := int32(0); id < 20; id++ {
		if !ix.Delete(id, data[id].Box) {
			t.Fatalf("object %d not found for deletion", id)
		}
	}
	ix.Flush()
	live := dataset.Clone(data[20:])
	oracle = scan.New(live)
	var got, want []int32
	for qi, q := range queries[30:] {
		got = sortedIDs(ix.Query(q, got[:0]))
		want = sortedIDs(oracle.Query(q, want[:0]))
		if !equalIDs(got, want) {
			t.Fatalf("query %d after delete+flush: got %d results, want %d", qi, len(got), len(want))
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
