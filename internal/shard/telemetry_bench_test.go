// Benchmark evidence for the telemetry acceptance criterion: the converged
// query hot path must stay allocation-free with a registry attached, and
// within a few percent of the uninstrumented engine. The instrumented
// variant pays exactly the designed costs per query — one histogram
// Observe (fan-out width) plus one counter Inc per shard probe — and the
// registry's scrape-time tier adds nothing until /metrics is scraped.

package shard

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func benchConvergedTelemetry(b *testing.B, instrument bool) {
	const n = 200_000
	data := dataset.Uniform(n, 45)
	ix := New(data, Config{Shards: 1, Workers: 1})
	if instrument {
		ix.Instrument(telemetry.NewRegistry())
	}
	ix.Complete()
	queries := workload.Uniform(dataset.Universe(), 1024, 1e-4, 46)
	b.ReportAllocs()
	b.ResetTimer()
	var buf []int32
	for i := 0; i < b.N; i++ {
		buf = ix.Query(queries[i%len(queries)], buf[:0])
	}
}

// BenchmarkQueryConvergedTelemetry compares the converged single-shard
// query path with and without an attached metrics registry. Run with
// -benchmem: both variants must report 0 allocs/op.
func BenchmarkQueryConvergedTelemetry(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchConvergedTelemetry(b, false) })
	b.Run("on", func(b *testing.B) { benchConvergedTelemetry(b, true) })
}

// TestConvergedPathNoAllocsInstrumented pins the acceptance criterion as a
// regular test so it runs in every `go test` sweep, not only under -bench.
func TestConvergedPathNoAllocsInstrumented(t *testing.T) {
	data := dataset.Uniform(50_000, 45)
	ix := New(data, Config{Shards: 1, Workers: 1})
	ix.Instrument(telemetry.NewRegistry())
	ix.Complete()
	queries := workload.Uniform(dataset.Universe(), 64, 1e-4, 46)
	var buf []int32
	allocs := testing.AllocsPerRun(200, func() {
		for _, q := range queries {
			buf = ix.Query(q, buf[:0])
		}
	})
	if allocs > 0 {
		t.Fatalf("converged instrumented query path allocates %.1f times per round, want 0", allocs)
	}
}
