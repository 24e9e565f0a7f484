// Package experiments contains one driver per table/figure of the QUASII
// paper's evaluation (Section 6). Each driver generates the figure's
// workload, runs every index the figure compares, validates that all indexes
// returned identical result cardinalities, and prints the same rows/series
// the paper plots. cmd/quasii-report runs them and renders EXPERIMENTS.md;
// the repository's testing.B benchmarks reuse them.
//
// Scales: the paper ran 450 M – 1 B objects on a 768 GB machine; the drivers
// default to laptop-scale datasets. Relative behaviour (who wins, roughly by
// what factor, where the crossovers fall) is scale-stable, which Fig. 11's
// two-scale run demonstrates.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mosaic"
	"repro/internal/rtree"
	"repro/internal/scan"
	"repro/internal/sfc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale sets the experiment sizes. The paper values are in comments.
type Scale struct {
	Name             string
	UniformN         int   // paper: 500 M
	NeuroN           int   // paper: 450 M
	ClusteredQueries int   // paper: 500 (5 clusters x 100)
	UniformQueries   int   // paper: 10 000
	Seed             int64 // RNG seed for datasets and workloads
	PrintEvery       int   // row sampling for the convergence/cumulative tables
	// GridUniform / GridNeuro are the per-dataset grid resolutions (paper:
	// 100 and 220, obtained by parameter sweep; ours are swept at this scale
	// by FigGridSweep).
	GridUniform int
	GridNeuro   int
}

// Small is the test/bench scale: fast enough for go test.
var Small = Scale{
	Name: "small", UniformN: 30000, NeuroN: 30000,
	ClusteredQueries: 200, UniformQueries: 600, Seed: 1,
	PrintEvery: 25, GridUniform: 24, GridNeuro: 48,
}

// Medium takes minutes per figure: the scale for headline numbers.
var Medium = Scale{
	Name: "medium", UniformN: 300000, NeuroN: 300000,
	ClusteredQueries: 500, UniformQueries: 2000, Seed: 1,
	PrintEvery: 50, GridUniform: 48, GridNeuro: 96,
}

// Large stresses the asymptotics (minutes of runtime).
var Large = Scale{
	Name: "large", UniformN: 2000000, NeuroN: 2000000,
	ClusteredQueries: 500, UniformQueries: 10000, Seed: 1,
	PrintEvery: 100, GridUniform: 80, GridNeuro: 160,
}

// Scales maps names to presets for the CLI.
var Scales = map[string]Scale{"small": Small, "medium": Medium, "large": Large}

// clusterSigma is the Gaussian spread of query centers around their cluster
// center, in universe units.
const clusterSigma = 200

// Selectivity constants from the paper.
const (
	selClustered = 1e-4 // 0.01 % (clustered workloads, Figs. 6-9)
	selUniform   = 1e-3 // 0.1 %  (uniform workloads, Figs. 10-11)
)

// Result carries the measured series of one experiment for programmatic
// inspection (EXPERIMENTS.md generation and tests).
type Result struct {
	Figure string
	Series []*bench.Series
	Notes  []string
}

func (r *Result) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Result) byName(name string) *bench.Series {
	for _, s := range r.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Get returns the series with the given name, or nil.
func (r *Result) Get(name string) *bench.Series { return r.byName(name) }

// validate cross-checks result cardinalities and records the outcome.
func (r *Result) validate() error {
	if err := bench.ValidateCounts(r.Series...); err != nil {
		return fmt.Errorf("%s: result mismatch across indexes: %w", r.Figure, err)
	}
	r.note("all %d indexes returned identical result counts on every query", len(r.Series))
	return nil
}

// neuroData and uniformData centralize dataset generation per scale.
func neuroData(sc Scale) []geom.Object {
	return dataset.Neuro(sc.NeuroN, sc.Seed, dataset.NeuroConfig{})
}

func uniformData(sc Scale) []geom.Object {
	return dataset.Uniform(sc.UniformN, sc.Seed)
}

func clusteredQueries(sc Scale, data []geom.Object) []geom.Box {
	perCluster := sc.ClusteredQueries / 5
	if perCluster < 1 {
		perCluster = 1
	}
	return workload.ClusteredOn(dataset.Universe(), data, 5, perCluster, selClustered, clusterSigma, sc.Seed+100)
}

// Fig6a reproduces Figure 6a: the impact of the data-assignment strategy.
// R-Tree vs GridQueryExt vs GridReplication, 500 clustered queries of 0.01 %
// selectivity on the neuro dataset; the metric is total query execution time.
func Fig6a(w io.Writer, sc Scale) (*Result, error) {
	data := neuroData(sc)
	queries := clusteredQueries(sc, data)
	r := &Result{Figure: "fig6a"}

	r.Series = append(r.Series,
		bench.Run("R-Tree", func() bench.QueryIndex {
			return rtree.New(data, rtree.Config{})
		}, queries),
		bench.Run("GridQueryExt", func() bench.QueryIndex {
			return grid.New(data, grid.Config{Partitions: sc.GridNeuro, Universe: dataset.Universe()})
		}, queries),
		bench.Run("GridReplication", func() bench.QueryIndex {
			return grid.New(data, grid.Config{Partitions: sc.GridNeuro, Assign: grid.Replication, Universe: dataset.Universe()})
		}, queries),
	)
	if err := r.validate(); err != nil {
		return r, err
	}
	fmt.Fprintf(w, "Figure 6a — query execution time (%d clustered queries, sel %.3g%%, neuro %d objects)\n",
		len(queries), selClustered*100, len(data))
	for _, s := range r.Series {
		fmt.Fprintf(w, "  %-16s query-time %v\n", s.Name, stats.Sum(s.PerQuery))
	}
	rt, gq, gr := r.byName("R-Tree"), r.byName("GridQueryExt"), r.byName("GridReplication")
	r.note("R-Tree speedup vs GridQueryExt: %.2fx", stats.Ratio(stats.Sum(gq.PerQuery), stats.Sum(rt.PerQuery)))
	r.note("R-Tree speedup vs GridReplication: %.2fx", stats.Ratio(stats.Sum(gr.PerQuery), stats.Sum(rt.PerQuery)))
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	return r, nil
}

// Fig6b reproduces Figure 6b: grid configuration sensitivity. Both datasets
// are run with both per-dataset best resolutions; the wrong configuration
// must hurt.
func Fig6b(w io.Writer, sc Scale) (*Result, error) {
	uni := uniformData(sc)
	neuro := neuroData(sc)
	uniQ := clusteredQueries(sc, uni)
	neuroQ := clusteredQueries(sc, neuro)
	r := &Result{Figure: "fig6b"}

	runGrid := func(name string, data []geom.Object, parts int, queries []geom.Box) *bench.Series {
		return bench.Run(name, func() bench.QueryIndex {
			return grid.New(data, grid.Config{Partitions: parts, Universe: dataset.Universe()})
		}, queries)
	}
	uniA := runGrid(fmt.Sprintf("Uniform/%d", sc.GridUniform), uni, sc.GridUniform, uniQ)
	uniB := runGrid(fmt.Sprintf("Uniform/%d", sc.GridNeuro), uni, sc.GridNeuro, uniQ)
	neuroA := runGrid(fmt.Sprintf("Neuro/%d", sc.GridUniform), neuro, sc.GridUniform, neuroQ)
	neuroB := runGrid(fmt.Sprintf("Neuro/%d", sc.GridNeuro), neuro, sc.GridNeuro, neuroQ)
	r.Series = []*bench.Series{uniA, uniB, neuroA, neuroB}
	// Validation within each dataset only (different datasets differ).
	if err := bench.ValidateCounts(uniA, uniB); err != nil {
		return r, fmt.Errorf("fig6b uniform: %w", err)
	}
	if err := bench.ValidateCounts(neuroA, neuroB); err != nil {
		return r, fmt.Errorf("fig6b neuro: %w", err)
	}
	fmt.Fprintf(w, "Figure 6b — grid configuration sensitivity (query time, %d clustered queries)\n", len(uniQ))
	for _, s := range r.Series {
		fmt.Fprintf(w, "  %-16s query-time %v\n", s.Name, stats.Sum(s.PerQuery))
	}
	r.note("uniform dataset: resolution %d vs %d -> %v vs %v", sc.GridUniform, sc.GridNeuro,
		stats.Sum(uniA.PerQuery), stats.Sum(uniB.PerQuery))
	r.note("neuro dataset: resolution %d vs %d -> %v vs %v", sc.GridUniform, sc.GridNeuro,
		stats.Sum(neuroA.PerQuery), stats.Sum(neuroB.PerQuery))
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	return r, nil
}

// incrementalSeries runs the full roster of Figs. 7-9: Scan, the three
// incremental approaches, and their static counterparts, all on the shared
// clustered neuro workload.
func incrementalSeries(sc Scale) (*Result, []geom.Box) {
	data := neuroData(sc)
	queries := clusteredQueries(sc, data)
	r := &Result{}
	r.Series = append(r.Series,
		bench.Run("Scan", func() bench.QueryIndex {
			return scan.New(data)
		}, queries),
		bench.Run("SFC", func() bench.QueryIndex {
			return sfc.New(data, sfc.Config{Universe: dataset.Universe()})
		}, queries),
		bench.Run("SFCracker", func() bench.QueryIndex {
			return sfc.NewCracker(dataset.Clone(data), sfc.Config{Universe: dataset.Universe()})
		}, queries),
		bench.Run("Grid", func() bench.QueryIndex {
			return grid.New(data, grid.Config{Partitions: sc.GridNeuro, Universe: dataset.Universe()})
		}, queries),
		bench.Run("Mosaic", func() bench.QueryIndex {
			return mosaic.New(data, mosaic.Config{Universe: dataset.Universe()})
		}, queries),
		bench.Run("R-Tree", func() bench.QueryIndex {
			return rtree.New(data, rtree.Config{})
		}, queries),
		bench.Run("QUASII", func() bench.QueryIndex {
			return core.New(dataset.Clone(data), core.Config{})
		}, queries),
	)
	return r, queries
}

// Fig7 reproduces Figure 7: per-query convergence of each incremental
// approach against its static counterpart and Scan, in three panels.
func Fig7(w io.Writer, sc Scale) (*Result, error) {
	r, queries := incrementalSeries(sc)
	r.Figure = "fig7"
	if err := r.validate(); err != nil {
		return r, err
	}
	fmt.Fprintf(w, "Figure 7 — convergence (%d clustered queries, sel %.3g%%, neuro %d objects)\n",
		len(queries), selClustered*100, sc.NeuroN)
	fmt.Fprintln(w, "\n(a) one-dimensional")
	bench.PrintConvergence(w, sc.PrintEvery, r.byName("SFC"), r.byName("SFCracker"), r.byName("Scan"))
	fmt.Fprintln(w, "\n(b) space-oriented")
	bench.PrintConvergence(w, sc.PrintEvery, r.byName("Grid"), r.byName("Mosaic"), r.byName("Scan"))
	fmt.Fprintln(w, "\n(c) data-oriented")
	bench.PrintConvergence(w, sc.PrintEvery, r.byName("R-Tree"), r.byName("QUASII"), r.byName("Scan"))
	tail := len(queries) / 10
	for _, pair := range [][2]string{{"SFCracker", "SFC"}, {"Mosaic", "Grid"}, {"QUASII", "R-Tree"}} {
		inc, st := r.byName(pair[0]), r.byName(pair[1])
		r.note("%s converged tail mean %v vs static %s %v", pair[0], inc.TailMean(tail), pair[1], st.TailMean(tail))
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	return r, nil
}

// Fig8 reproduces Figure 8: cumulative execution time (including the build
// step of the static approaches), three panels, with break-even notes.
func Fig8(w io.Writer, sc Scale) (*Result, error) {
	r, queries := incrementalSeries(sc)
	r.Figure = "fig8"
	if err := r.validate(); err != nil {
		return r, err
	}
	fmt.Fprintf(w, "Figure 8 — cumulative time incl. build (%d clustered queries, neuro %d objects)\n",
		len(queries), sc.NeuroN)
	fmt.Fprintln(w, "\n(a) one-dimensional")
	bench.PrintCumulative(w, sc.PrintEvery, r.byName("SFC"), r.byName("SFCracker"), r.byName("Scan"))
	fmt.Fprintln(w, "\n(b) space-oriented")
	bench.PrintCumulative(w, sc.PrintEvery, r.byName("Grid"), r.byName("Mosaic"), r.byName("Scan"))
	fmt.Fprintln(w, "\n(c) data-oriented")
	bench.PrintCumulative(w, sc.PrintEvery, r.byName("R-Tree"), r.byName("QUASII"), r.byName("Scan"))
	for _, pair := range [][2]string{{"SFCracker", "SFC"}, {"Mosaic", "Grid"}, {"QUASII", "R-Tree"}} {
		inc, st := r.byName(pair[0]), r.byName(pair[1])
		be := bench.BreakEven(inc, st)
		if be < 0 {
			r.note("%s never exceeds cumulative time of %s within %d queries", pair[0], pair[1], len(queries))
		} else {
			r.note("%s exceeds cumulative time of %s after %d queries", pair[0], pair[1], be)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	return r, nil
}

// Fig9 reproduces Figure 9: the comparative analysis of the incremental
// approaches — (a) convergence against R-Tree and Scan, (b) cumulative time
// against Grid — plus the paper's headline data-to-insight ratios.
func Fig9(w io.Writer, sc Scale) (*Result, error) {
	r, queries := incrementalSeries(sc)
	r.Figure = "fig9"
	if err := r.validate(); err != nil {
		return r, err
	}
	fmt.Fprintf(w, "Figure 9 — comparative analysis (%d clustered queries, neuro %d objects)\n", len(queries), sc.NeuroN)
	fmt.Fprintln(w, "\n(a) convergence")
	bench.PrintConvergence(w, sc.PrintEvery,
		r.byName("Scan"), r.byName("R-Tree"), r.byName("QUASII"), r.byName("Mosaic"), r.byName("SFCracker"))
	fmt.Fprintln(w)
	bench.Chart(w, 72, 14, false,
		r.byName("Scan"), r.byName("R-Tree"), r.byName("QUASII"), r.byName("Mosaic"), r.byName("SFCracker"))
	fmt.Fprintln(w, "\n(b) cumulative")
	bench.PrintCumulative(w, sc.PrintEvery,
		r.byName("QUASII"), r.byName("Mosaic"), r.byName("SFCracker"), r.byName("Grid"))
	fmt.Fprintln(w)
	bench.Chart(w, 72, 14, true,
		r.byName("QUASII"), r.byName("Mosaic"), r.byName("SFCracker"), r.byName("Grid"))

	scanS, q := r.byName("Scan"), r.byName("QUASII")
	mo, sf := r.byName("Mosaic"), r.byName("SFCracker")
	rt, gr := r.byName("R-Tree"), r.byName("Grid")
	r.note("first query: Scan %v, QUASII %v (%.1fx), Mosaic %v (%.1fx), SFCracker %v (%.1fx)",
		scanS.FirstQuery(), q.FirstQuery(), stats.Ratio(q.FirstQuery(), scanS.FirstQuery()),
		mo.FirstQuery(), stats.Ratio(mo.FirstQuery(), scanS.FirstQuery()),
		sf.FirstQuery(), stats.Ratio(sf.FirstQuery(), scanS.FirstQuery()))
	r.note("data-to-insight: QUASII %.1fx faster than R-Tree, %.1fx faster than Grid",
		stats.Ratio(rt.FirstQuery(), q.FirstQuery()), stats.Ratio(gr.FirstQuery(), q.FirstQuery()))
	tail := len(queries) / 10
	r.note("converged tail mean: QUASII %v, R-Tree %v, Mosaic %v (%.2fx), SFCracker %v (%.2fx)",
		q.TailMean(tail), rt.TailMean(tail),
		mo.TailMean(tail), stats.Ratio(mo.TailMean(tail), q.TailMean(tail)),
		sf.TailMean(tail), stats.Ratio(sf.TailMean(tail), q.TailMean(tail)))
	r.note("cumulative after %d queries: QUASII %v = %.0f%% of R-Tree %v, %.0f%% of Grid %v",
		len(queries), q.Total(), 100*stats.Ratio(q.Total(), rt.Total()), rt.Total(),
		100*stats.Ratio(q.Total(), gr.Total()), gr.Total())
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	return r, nil
}

// Fig10 reproduces Figure 10: the uniform workload — convergence and
// cumulative time for the first 500 and last 100 of a long uniform query
// sequence, QUASII vs R-Tree vs Grid (and Scan when the scale allows).
func Fig10(w io.Writer, sc Scale) (*Result, error) {
	data := uniformData(sc)
	queries := workload.Uniform(dataset.Universe(), sc.UniformQueries, selUniform, sc.Seed+200)
	r := &Result{Figure: "fig10"}

	includeScan := int64(sc.UniformN)*int64(sc.UniformQueries) <= 5e9/25
	r.Series = append(r.Series,
		bench.Run("R-Tree", func() bench.QueryIndex { return rtree.New(data, rtree.Config{}) }, queries),
		bench.Run("QUASII", func() bench.QueryIndex {
			return core.New(dataset.Clone(data), core.Config{})
		}, queries),
		bench.Run("Grid", func() bench.QueryIndex {
			return grid.New(data, grid.Config{Partitions: sc.GridUniform, Universe: dataset.Universe()})
		}, queries),
	)
	if includeScan {
		r.Series = append(r.Series, bench.Run("Scan", func() bench.QueryIndex { return scan.New(data) }, queries))
	} else {
		r.note("Scan omitted at this scale (O(n) per query would dominate wall-clock)")
	}
	if err := r.validate(); err != nil {
		return r, err
	}
	head := 500
	if head > len(queries) {
		head = len(queries)
	}
	tailN := 100
	if tailN > len(queries) {
		tailN = len(queries)
	}
	rt, q, gr := r.byName("R-Tree"), r.byName("QUASII"), r.byName("Grid")
	headSeries := func(s *bench.Series) *bench.Series {
		return &bench.Series{Name: s.Name, Build: s.Build, PerQuery: s.PerQuery[:head], Counts: s.Counts[:head]}
	}
	tailSeries := func(s *bench.Series) *bench.Series {
		n := len(s.PerQuery)
		return &bench.Series{Name: s.Name, Build: s.Build + stats.Sum(s.PerQuery[:n-tailN]),
			PerQuery: s.PerQuery[n-tailN:], Counts: s.Counts[n-tailN:]}
	}
	fmt.Fprintf(w, "Figure 10 — uniform workload (%d queries, sel %.3g%%, uniform %d objects)\n",
		len(queries), selUniform*100, sc.UniformN)
	fmt.Fprintf(w, "\n(a) convergence, first %d queries\n", head)
	panels := []*bench.Series{headSeries(rt), headSeries(q)}
	if s := r.byName("Scan"); s != nil {
		panels = append(panels, headSeries(s))
	}
	bench.PrintConvergence(w, sc.PrintEvery, panels...)
	fmt.Fprintf(w, "\n(b) convergence, last %d queries\n", tailN)
	panels = []*bench.Series{tailSeries(rt), tailSeries(q)}
	if s := r.byName("Scan"); s != nil {
		panels = append(panels, tailSeries(s))
	}
	bench.PrintConvergence(w, sc.PrintEvery/2+1, panels...)
	fmt.Fprintf(w, "\n(c) cumulative, first %d queries\n", head)
	bench.PrintCumulative(w, sc.PrintEvery, headSeries(rt), headSeries(q), headSeries(gr))
	fmt.Fprintf(w, "\n(d) cumulative, last %d queries\n", tailN)
	bench.PrintCumulative(w, sc.PrintEvery/2+1, tailSeries(rt), tailSeries(q), tailSeries(gr))

	r.note("after %d queries QUASII cumulative = %.0f%% of R-Tree, %.0f%% of Grid",
		len(queries), 100*stats.Ratio(q.Total(), rt.Total()), 100*stats.Ratio(q.Total(), gr.Total()))
	r.note("data-to-insight: %.1fx vs R-Tree, %.1fx vs Grid",
		stats.Ratio(rt.FirstQuery(), q.FirstQuery()), stats.Ratio(gr.FirstQuery(), q.FirstQuery()))
	r.note("QUASII tail-%d mean %v vs R-Tree %v (%s)",
		tailN, q.TailMean(tailN), rt.TailMean(tailN), gap(stats.Ratio(q.TailMean(tailN), rt.TailMean(tailN))))
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	return r, nil
}

// gap words a time ratio (ours ÷ theirs) as a percentage by its sign: 0.566
// reads "43.4% faster", 1.12 "12.0% slower".
func gap(ratio float64) string {
	if ratio < 1 {
		return fmt.Sprintf("%.1f%% faster", 100*(1-ratio))
	}
	return fmt.Sprintf("%.1f%% slower", 100*(ratio-1))
}

// Fig11 reproduces Figure 11: scalability — cumulative time of QUASII vs
// R-Tree (split into build and query) at two dataset sizes (1x and 2x).
func Fig11(w io.Writer, sc Scale) (*Result, error) {
	r := &Result{Figure: "fig11"}
	fmt.Fprintf(w, "Figure 11 — scalability (uniform workload, %d queries, sel %.3g%%)\n",
		sc.UniformQueries, selUniform*100)
	for _, mult := range []int{1, 2} {
		n := sc.UniformN * mult
		data := dataset.Uniform(n, sc.Seed)
		queries := workload.Uniform(dataset.Universe(), sc.UniformQueries, selUniform, sc.Seed+200)
		rt := bench.Run(fmt.Sprintf("R-Tree/%dx", mult), func() bench.QueryIndex {
			return rtree.New(data, rtree.Config{})
		}, queries)
		q := bench.Run(fmt.Sprintf("QUASII/%dx", mult), func() bench.QueryIndex {
			return core.New(dataset.Clone(data), core.Config{})
		}, queries)
		if err := bench.ValidateCounts(rt, q); err != nil {
			return r, fmt.Errorf("fig11 %dx: %w", mult, err)
		}
		r.Series = append(r.Series, rt, q)
		fmt.Fprintf(w, "  %-12s build %12v  query %12v  total %12v\n",
			rt.Name, rt.Build, stats.Sum(rt.PerQuery), rt.Total())
		fmt.Fprintf(w, "  %-12s build %12v  query %12v  total %12v\n",
			q.Name, q.Build, stats.Sum(q.PerQuery), q.Total())
		r.note("%dx (%d objects): QUASII total = %.0f%% of R-Tree; data-to-insight %.1fx",
			mult, n, 100*stats.Ratio(q.Total(), rt.Total()),
			stats.Ratio(rt.FirstQuery(), q.FirstQuery()))
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	return r, nil
}

// Fig12 reproduces Figure 12: the impact of query selectivity on the
// cumulative time of QUASII vs R-Tree (0.001 %, 1 %, 10 %).
func Fig12(w io.Writer, sc Scale) (*Result, error) {
	r := &Result{Figure: "fig12"}
	data := uniformData(sc)
	nQueries := sc.UniformQueries / 2
	if nQueries < 10 {
		nQueries = 10
	}
	fmt.Fprintf(w, "Figure 12 — selectivity impact (uniform workload, %d queries, uniform %d objects)\n",
		nQueries, sc.UniformN)
	for _, sel := range []float64{1e-5, 1e-2, 1e-1} {
		queries := workload.Uniform(dataset.Universe(), nQueries, sel, sc.Seed+300)
		rt := bench.Run(fmt.Sprintf("R-Tree/%.3g%%", sel*100), func() bench.QueryIndex {
			return rtree.New(data, rtree.Config{})
		}, queries)
		q := bench.Run(fmt.Sprintf("QUASII/%.3g%%", sel*100), func() bench.QueryIndex {
			return core.New(dataset.Clone(data), core.Config{})
		}, queries)
		if err := bench.ValidateCounts(rt, q); err != nil {
			return r, fmt.Errorf("fig12 sel %g: %w", sel, err)
		}
		r.Series = append(r.Series, rt, q)
		fmt.Fprintf(w, "  %-14s build %12v  query %12v  total %12v\n",
			rt.Name, rt.Build, stats.Sum(rt.PerQuery), rt.Total())
		fmt.Fprintf(w, "  %-14s build %12v  query %12v  total %12v\n",
			q.Name, q.Build, stats.Sum(q.PerQuery), q.Total())
		be := bench.BreakEven(q, rt)
		beStr := "never"
		if be >= 0 {
			beStr = fmt.Sprintf("after %d queries", be)
		}
		r.note("sel %.3g%%: QUASII total = %.0f%% of R-Tree, break-even %s",
			sel*100, 100*stats.Ratio(q.Total(), rt.Total()), beStr)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	return r, nil
}

// GridSweep is the parameter sweep the paper performs to configure Grid:
// query time as a function of grid resolution, per dataset.
func GridSweep(w io.Writer, sc Scale) (*Result, error) {
	r := &Result{Figure: "gridsweep"}
	fmt.Fprintln(w, "Grid resolution sweep (total query time per resolution)")
	for _, ds := range []struct {
		name string
		data []geom.Object
	}{{"uniform", uniformData(sc)}, {"neuro", neuroData(sc)}} {
		queries := clusteredQueries(sc, ds.data)
		fmt.Fprintf(w, "  dataset %s:\n", ds.name)
		for _, parts := range []int{8, 16, 24, 32, 48, 64, 96, 128} {
			s := bench.Run(fmt.Sprintf("%s/%d", ds.name, parts), func() bench.QueryIndex {
				return grid.New(ds.data, grid.Config{Partitions: parts, Universe: dataset.Universe()})
			}, queries)
			r.Series = append(r.Series, s)
			fmt.Fprintf(w, "    partitions %4d: build %12v query %12v\n", parts, s.Build, stats.Sum(s.PerQuery))
		}
	}
	return r, nil
}

// Registry maps figure names to drivers for the CLI.
var Registry = map[string]func(io.Writer, Scale) (*Result, error){
	"fig6a":     Fig6a,
	"fig6b":     Fig6b,
	"fig7":      Fig7,
	"fig8":      Fig8,
	"fig9":      Fig9,
	"fig10":     Fig10,
	"fig11":     Fig11,
	"fig12":     Fig12,
	"gridsweep": GridSweep,
	"patterns":  Patterns,
}

// Order lists the figures in paper order for "run everything".
var Order = []string{"fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"}

// Patterns is an extension experiment (not a paper figure): QUASII vs R-Tree
// under the access patterns of the adaptive-indexing literature — uniform
// random, sequential sweep (worst case for cracking: no refinement reuse),
// and Zipfian hotspots (best case: heavy reuse).
func Patterns(w io.Writer, sc Scale) (*Result, error) {
	r := &Result{Figure: "patterns"}
	data := uniformData(sc)
	n := sc.UniformQueries
	if n < 10 {
		n = 10
	}
	kinds := []struct {
		name    string
		queries []geom.Box
	}{
		{"uniform", workload.Uniform(dataset.Universe(), n, selUniform, sc.Seed+400)},
		{"sequential", workload.Sequential(dataset.Universe(), n, selUniform, 0)},
		{"zipf", workload.Zipf(dataset.Universe(), n, selUniform, 1.2, sc.Seed+401)},
	}
	fmt.Fprintf(w, "Workload patterns — QUASII vs R-Tree (%d queries, sel %.3g%%, uniform %d objects)\n",
		n, selUniform*100, sc.UniformN)
	for _, k := range kinds {
		rt := bench.Run("R-Tree/"+k.name, func() bench.QueryIndex {
			return rtree.New(data, rtree.Config{})
		}, k.queries)
		q := bench.Run("QUASII/"+k.name, func() bench.QueryIndex {
			return core.New(dataset.Clone(data), core.Config{})
		}, k.queries)
		if err := bench.ValidateCounts(rt, q); err != nil {
			return r, fmt.Errorf("patterns %s: %w", k.name, err)
		}
		r.Series = append(r.Series, rt, q)
		be := bench.BreakEven(q, rt)
		beStr := "never"
		if be >= 0 {
			beStr = fmt.Sprintf("after %d queries", be)
		}
		fmt.Fprintf(w, "  %-18s total %12v (R-Tree %12v), tail mean %10v (R-Tree %10v), break-even %s\n",
			k.name, q.Total(), rt.Total(), q.TailMean(n/10), rt.TailMean(n/10), beStr)
		r.note("%s: QUASII total = %.0f%% of R-Tree, break-even %s",
			k.name, 100*stats.Ratio(q.Total(), rt.Total()), beStr)
	}
	for _, note := range r.Notes {
		fmt.Fprintln(w, "note:", note)
	}
	return r, nil
}
