package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/scan"
	"repro/internal/shard"
	"repro/internal/syncidx"
	"repro/internal/workload"
)

func TestRunParallelMatchesSerial(t *testing.T) {
	data := dataset.Uniform(3000, 31)
	queries := workload.Uniform(dataset.Universe(), 100, 1e-3, 32)

	serial := Run("scan", func() QueryIndex { return scan.New(data) }, queries)
	var wantTotal int64
	for _, c := range serial.Counts {
		wantTotal += int64(c)
	}

	par := RunParallel("sharded", func() QueryIndex {
		return shard.New(data, shard.Config{Shards: 4})
	}, queries, 4)
	if par.Queries != len(queries) {
		t.Fatalf("answered %d queries, want %d", par.Queries, len(queries))
	}
	if par.Results != wantTotal {
		t.Fatalf("total results %d, want %d", par.Results, wantTotal)
	}
	if par.Wall <= 0 || par.QPS() <= 0 {
		t.Fatalf("no wall time measured: %+v", par)
	}
}

// TestRunParallelMixed drives readers and writers through the sharded
// engine at once: the workload must drain completely and the writers must
// make progress. (Result totals are not compared against a read-only run:
// a reader may legitimately observe another writer's in-flight insert.)
func TestRunParallelMixed(t *testing.T) {
	data := dataset.Uniform(3000, 33)
	queries := workload.Uniform(dataset.Universe(), 400, 1e-3, 34)

	mixed := RunParallelMixed("sharded-mixed", func() UpdatableIndex {
		return shard.New(data, shard.Config{Shards: 2})
	}, queries, 3, 2)
	if mixed.Queries != len(queries) {
		t.Fatalf("answered %d queries, want %d", mixed.Queries, len(queries))
	}
	if mixed.Writes == 0 {
		t.Fatal("writer goroutines completed no insert→delete cycles")
	}
	if mixed.Wall <= 0 || mixed.QPS() <= 0 {
		t.Fatalf("no wall time measured: %+v", mixed)
	}
}

// TestRunReadScaling smoke-runs the read-scaling harness on tiny inputs and
// checks cross-engine validation plus the table printer.
func TestRunReadScaling(t *testing.T) {
	data := dataset.Uniform(2000, 35)
	queries := workload.Uniform(dataset.Universe(), 60, 1e-3, 36)
	points, err := RunReadScaling(ReadScalingConfig{
		Engines: []ReadScaleEngine{
			{Name: "exclusive", Build: func(converged bool) QueryIndex {
				ix := core.New(data, core.Config{})
				if converged {
					ix.Complete()
				}
				return syncidx.Wrap(ix)
			}},
			{Name: "shared", Build: func(converged bool) QueryIndex {
				ix := shard.New(data, shard.Config{Shards: 1})
				if converged {
					ix.Complete()
				}
				return ix
			}},
		},
		Queries:    queries,
		Goroutines: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2; len(points) != want { // phases x goroutines x engines
		t.Fatalf("got %d points, want %d", len(points), want)
	}
	var sb strings.Builder
	PrintReadScaling(&sb, points)
	for _, want := range []string{"phase converged", "phase mixed", "shared", "exclusive"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q:\n%s", want, sb.String())
		}
	}
}

func TestValidateResults(t *testing.T) {
	a := &ThroughputSeries{Name: "a", Queries: 10, Results: 100}
	b := &ThroughputSeries{Name: "b", Queries: 10, Results: 100}
	if err := ValidateResults(a, b); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	b.Results = 99
	if err := ValidateResults(a, b); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestPrintThroughput(t *testing.T) {
	var sb strings.Builder
	PrintThroughput(&sb,
		&ThroughputSeries{Name: "mutex", Goroutines: 8, Queries: 100, Wall: 2e9},
		&ThroughputSeries{Name: "sharded", Goroutines: 8, Queries: 100, Wall: 1e9},
	)
	out := sb.String()
	for _, want := range []string{"mutex", "sharded", "2.00x", "queries/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
