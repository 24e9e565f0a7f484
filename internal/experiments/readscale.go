// ReadScaling is an extension experiment (not a paper figure): single-shard
// read scaling of the concurrent read-path engine. QUASII converges toward
// R-tree-like behaviour because converged slices are never cracked again;
// this experiment measures whether the serving stack actually cashes that
// in — whether queries over a converged shard scale with client goroutines
// on the shared read path, against the exclusive-lock baseline that
// serializes them: QUASII behind one global mutex (syncidx.Wrap), the same
// engine the throughput experiment prints as its mutex series.

package experiments

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/syncidx"
)

// ReadScaling sweeps client goroutines over one shard in two phases
// (converged, then mixed crack/read on a cold index) for the shared-path
// engine and the exclusive-lock baseline. Engines must agree on the total
// result cardinality in every cell.
func ReadScaling(w io.Writer, sc Scale) (*Result, error) {
	r := &Result{Figure: "readscaling"}
	data := uniformData(sc)
	queries, err := WorkloadQueries(sc.Workload, data, sc.UniformQueries, selUniform, 0, sc.Seed+300)
	if err != nil {
		return nil, err
	}
	maxG := sc.Goroutines
	if maxG < 1 {
		maxG = 8
	}
	var gs []int
	for g := 1; g < maxG; g *= 2 {
		gs = append(gs, g)
	}
	gs = append(gs, maxG)

	sub := core.Config{DisableStats: sc.NoStats}
	cfg := bench.ReadScalingConfig{
		Engines: []bench.ReadScaleEngine{
			{Name: "exclusive", Build: func(converged bool) bench.QueryIndex {
				ix := core.New(data, sub)
				if converged {
					ix.Complete()
				}
				return syncidx.Wrap(ix)
			}},
			{Name: "shared", Build: func(converged bool) bench.QueryIndex {
				ix := shard.New(data, shard.Config{Shards: 1, Workers: 1, SubConfig: sub})
				if converged {
					ix.Complete()
				}
				return ix
			}},
		},
		Queries:    queries,
		Goroutines: gs,
	}
	fmt.Fprintf(w, "  uniform dataset n=%d, %d %s queries on ONE shard, goroutine sweep %v\n\n",
		len(data), len(queries), workloadOrDefault(sc.Workload), gs)
	points, err := bench.RunReadScaling(cfg)
	if err != nil {
		return nil, fmt.Errorf("readscaling: %w", err)
	}
	bench.PrintReadScaling(w, points)

	// Headline: converged shared vs exclusive at the top goroutine count.
	var exQPS, shQPS float64
	for _, p := range points {
		if p.Phase == "converged" && p.Goroutines == maxG {
			switch p.Engine {
			case "exclusive":
				exQPS = p.QPS
			case "shared":
				shQPS = p.QPS
			}
		}
	}
	if exQPS > 0 {
		r.note("converged, %d goroutines, one shard: shared read path %.0f q/s vs exclusive lock %.0f q/s (%.2fx)",
			maxG, shQPS, exQPS, shQPS/exQPS)
	}
	r.note("all cells validated: shared and exclusive returned identical total result cardinalities")
	return r, nil
}

func workloadOrDefault(wl string) string {
	if wl == "" {
		return "uniform"
	}
	return wl
}
