package quasii_test

// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per figure, delegating to the shared experiment drivers),
// plus micro-benchmarks of the individual indexes and ablation benchmarks
// for QUASII's design choices (τ, assignment coordinate, artificial
// refinement) and SFCracker's interval cap.
//
// Run with: go test -bench=. -benchmem

import (
	"io"
	"testing"

	quasii "repro"
	"repro/internal/bench"
	"repro/internal/experiments"
)

// benchScale keeps whole-figure benchmarks fast enough for -bench=. while
// still exercising every code path of the experiment drivers.
var benchScale = experiments.Scale{
	Name: "bench", UniformN: 20000, NeuroN: 20000,
	ClusteredQueries: 100, UniformQueries: 200, Seed: 1,
	PrintEvery: 50, GridUniform: 16, GridNeuro: 32,
}

func benchFigure(b *testing.B, name string) {
	driver := experiments.Registry[name]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := driver(io.Discard, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper figure.

func BenchmarkFig6aDataAssignment(b *testing.B)    { benchFigure(b, "fig6a") }
func BenchmarkFig6bGridConfiguration(b *testing.B) { benchFigure(b, "fig6b") }
func BenchmarkFig7Convergence(b *testing.B)        { benchFigure(b, "fig7") }
func BenchmarkFig8Cumulative(b *testing.B)         { benchFigure(b, "fig8") }
func BenchmarkFig9Comparative(b *testing.B)        { benchFigure(b, "fig9") }
func BenchmarkFig10UniformWorkload(b *testing.B)   { benchFigure(b, "fig10") }
func BenchmarkFig11Scalability(b *testing.B)       { benchFigure(b, "fig11") }
func BenchmarkFig12Selectivity(b *testing.B)       { benchFigure(b, "fig12") }

// --- Micro-benchmarks: build cost ---

const microN = 100000

func benchData(b *testing.B) []quasii.Object {
	b.Helper()
	return quasii.UniformDataset(microN, 1)
}

func BenchmarkBuildQUASII(b *testing.B) {
	data := benchData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone := quasii.CloneObjects(data)
		b.StartTimer()
		quasii.NewQUASII(clone, quasii.QUASIIConfig{})
	}
}

func BenchmarkBuildRTree(b *testing.B) {
	data := benchData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quasii.NewRTree(data, quasii.RTreeConfig{})
	}
}

func BenchmarkBuildGrid(b *testing.B) {
	data := benchData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quasii.NewGrid(data, quasii.GridConfig{Partitions: 48, Universe: quasii.Universe()})
	}
}

func BenchmarkBuildSFC(b *testing.B) {
	data := benchData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quasii.NewSFC(data, quasii.SFCConfig{Universe: quasii.Universe()})
	}
}

// --- Micro-benchmarks: query cost on a converged index ---

func convergedQUASII(b *testing.B, data []quasii.Object, warm []quasii.Box) *quasii.QUASII {
	b.Helper()
	ix := quasii.NewQUASII(quasii.CloneObjects(data), quasii.QUASIIConfig{})
	var buf []int32
	for _, q := range warm {
		buf = ix.Query(q, buf[:0])
	}
	return ix
}

func BenchmarkQueryConvergedQUASII(b *testing.B) {
	data := benchData(b)
	warm := quasii.UniformQueries(500, 1e-3, 2)
	ix := convergedQUASII(b, data, warm)
	queries := quasii.UniformQueries(64, 1e-3, 3)
	var buf []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ix.Query(queries[i%len(queries)], buf[:0])
	}
}

func BenchmarkQueryRTree(b *testing.B) {
	data := benchData(b)
	tr := quasii.NewRTree(data, quasii.RTreeConfig{})
	queries := quasii.UniformQueries(64, 1e-3, 3)
	var buf []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.Query(queries[i%len(queries)], buf[:0])
	}
}

func BenchmarkQueryGrid(b *testing.B) {
	data := benchData(b)
	g := quasii.NewGrid(data, quasii.GridConfig{Partitions: 48, Universe: quasii.Universe()})
	queries := quasii.UniformQueries(64, 1e-3, 3)
	var buf []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Query(queries[i%len(queries)], buf[:0])
	}
}

func BenchmarkQueryScan(b *testing.B) {
	data := benchData(b)
	s := quasii.NewScan(data)
	queries := quasii.UniformQueries(64, 1e-3, 3)
	var buf []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.Query(queries[i%len(queries)], buf[:0])
	}
}

func BenchmarkQueryRTreeKNN(b *testing.B) {
	data := benchData(b)
	tr := quasii.NewRTree(data, quasii.RTreeConfig{})
	queries := quasii.UniformQueries(64, 1e-3, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.KNN(queries[i%len(queries)].Center(), 10)
	}
}

// --- First-query (data-to-insight) benchmarks ---

func BenchmarkFirstQueryQUASII(b *testing.B) {
	data := benchData(b)
	q := quasii.UniformQueries(1, 1e-3, 4)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone := quasii.CloneObjects(data)
		b.StartTimer()
		ix := quasii.NewQUASII(clone, quasii.QUASIIConfig{})
		ix.Query(q, nil)
	}
}

func BenchmarkFirstQuerySFCracker(b *testing.B) {
	data := benchData(b)
	q := quasii.UniformQueries(1, 1e-3, 4)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone := quasii.CloneObjects(data)
		b.StartTimer()
		cr := quasii.NewSFCracker(clone, quasii.SFCConfig{Universe: quasii.Universe()})
		cr.Query(q, nil)
	}
}

func BenchmarkFirstQueryMosaic(b *testing.B) {
	data := benchData(b)
	q := quasii.UniformQueries(1, 1e-3, 4)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mo := quasii.NewMosaic(data, quasii.MosaicConfig{Universe: quasii.Universe()})
		mo.Query(q, nil)
	}
}

// --- Ablations: QUASII design choices (DESIGN.md) ---

func benchAblationWorkload(b *testing.B, cfg quasii.QUASIIConfig) {
	b.Helper()
	data := benchData(b)
	queries := quasii.UniformQueries(200, 1e-3, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone := quasii.CloneObjects(data)
		b.StartTimer()
		ix := quasii.NewQUASII(clone, cfg)
		var buf []int32
		for _, q := range queries {
			buf = ix.Query(q, buf[:0])
		}
	}
}

// τ sweep: leaf capacity trades refinement work against scan width.
func BenchmarkAblationTau15(b *testing.B)  { benchAblationWorkload(b, quasii.QUASIIConfig{Tau: 15}) }
func BenchmarkAblationTau60(b *testing.B)  { benchAblationWorkload(b, quasii.QUASIIConfig{Tau: 60}) }
func BenchmarkAblationTau240(b *testing.B) { benchAblationWorkload(b, quasii.QUASIIConfig{Tau: 240}) }

// SFCracker interval cap: exact decomposition cracks more, capped
// decomposition scans more false positives.
func benchSFCrackerIntervals(b *testing.B, maxIntervals int) {
	b.Helper()
	data := benchData(b)
	queries := quasii.UniformQueries(100, 1e-3, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone := quasii.CloneObjects(data)
		b.StartTimer()
		cr := quasii.NewSFCracker(clone, quasii.SFCConfig{Universe: quasii.Universe(), MaxIntervals: maxIntervals})
		var buf []int32
		for _, q := range queries {
			buf = cr.Query(q, buf[:0])
		}
	}
}

func BenchmarkAblationSFCrackerExactIntervals(b *testing.B)  { benchSFCrackerIntervals(b, -1) }
func BenchmarkAblationSFCrackerCappedIntervals(b *testing.B) { benchSFCrackerIntervals(b, 64) }

// --- Extension benchmarks: STR vs dynamic insertion, Z-order vs Hilbert ---

// The paper's stated reason for STR: lower pre-processing cost and less
// overlap than inserting one object at a time.
func BenchmarkBuildDynRTree(b *testing.B) {
	data := benchData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quasii.NewDynRTreeFromData(data, quasii.RTreeConfig{})
	}
}

func BenchmarkQueryDynRTree(b *testing.B) {
	data := benchData(b)
	dt := quasii.NewDynRTreeFromData(data, quasii.RTreeConfig{})
	queries := quasii.UniformQueries(64, 1e-3, 3)
	var buf []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = dt.Query(queries[i%len(queries)], buf[:0])
	}
}

func benchSFCCurve(b *testing.B, curve quasii.SFCConfig) {
	b.Helper()
	data := benchData(b)
	queries := quasii.UniformQueries(100, 1e-3, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone := quasii.CloneObjects(data)
		b.StartTimer()
		cr := quasii.NewSFCracker(clone, curve)
		var buf []int32
		for _, q := range queries {
			buf = cr.Query(q, buf[:0])
		}
	}
}

func BenchmarkAblationCurveZOrder(b *testing.B) {
	benchSFCCurve(b, quasii.SFCConfig{Universe: quasii.Universe(), Curve: quasii.CurveZOrder})
}

func BenchmarkAblationCurveHilbert(b *testing.B) {
	benchSFCCurve(b, quasii.SFCConfig{Universe: quasii.Universe(), Curve: quasii.CurveHilbert})
}

// Stochastic refinement: extra random cuts guard against sequential sweeps.
func BenchmarkAblationStochasticUniform(b *testing.B) {
	benchAblationWorkload(b, quasii.QUASIIConfig{Stochastic: true})
}

func benchSequentialWorkload(b *testing.B, cfg quasii.QUASIIConfig) {
	b.Helper()
	data := benchData(b)
	queries := quasii.SequentialQueries(45, 1e-5, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone := quasii.CloneObjects(data)
		b.StartTimer()
		ix := quasii.NewQUASII(clone, cfg)
		var buf []int32
		for _, q := range queries {
			buf = ix.Query(q, buf[:0])
		}
	}
}

func BenchmarkAblationSequentialPlain(b *testing.B) {
	benchSequentialWorkload(b, quasii.QUASIIConfig{})
}

func BenchmarkAblationSequentialStochastic(b *testing.B) {
	benchSequentialWorkload(b, quasii.QUASIIConfig{Stochastic: true})
}

// Complete() converts the adaptive index into its converged form eagerly.
func BenchmarkCompleteRefinement(b *testing.B) {
	data := benchData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone := quasii.CloneObjects(data)
		b.StartTimer()
		ix := quasii.NewQUASII(clone, quasii.QUASIIConfig{})
		ix.Complete()
	}
}

func BenchmarkQueryQUASIIKNN(b *testing.B) {
	data := benchData(b)
	ix := quasii.NewQUASII(quasii.CloneObjects(data), quasii.QUASIIConfig{})
	ix.Complete()
	queries := quasii.UniformQueries(64, 1e-3, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.KNN(queries[i%len(queries)].Center(), 10)
	}
}

// R-tree family comparison: STR bulk load vs Guttman vs R* (build cost and
// query performance; leaf overlap is asserted in the test suite).
func BenchmarkBuildRStarTree(b *testing.B) {
	data := benchData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quasii.NewRStarTreeFromData(data, quasii.RTreeConfig{})
	}
}

func BenchmarkQueryRStarTree(b *testing.B) {
	data := benchData(b)
	rs := quasii.NewRStarTreeFromData(data, quasii.RTreeConfig{})
	queries := quasii.UniformQueries(64, 1e-3, 3)
	var buf []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = rs.Query(queries[i%len(queries)], buf[:0])
	}
}

// Two-level grid: the density-adaptive alternative to sweeping a uniform
// grid's resolution per dataset.
func BenchmarkBuildTwoLevelGrid(b *testing.B) {
	data := benchData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quasii.NewTwoLevelGrid(data, quasii.TwoLevelGridConfig{Universe: quasii.Universe()})
	}
}

func BenchmarkQueryTwoLevelGrid(b *testing.B) {
	data := benchData(b)
	g := quasii.NewTwoLevelGrid(data, quasii.TwoLevelGridConfig{Universe: quasii.Universe()})
	queries := quasii.UniformQueries(64, 1e-3, 3)
	var buf []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Query(queries[i%len(queries)], buf[:0])
	}
}

// --- Concurrent throughput: the sharded engine vs the global mutex ---
//
// benchThroughput answers a fixed uniform workload with 8 client goroutines
// draining a shared queue; b.N iterations rebuild the engine each time so
// adaptive indexes start cold. Compare:
//
//	go test -bench 'Throughput' -benchtime 5x
//
// The sharded engine should clear >1.5x the queries/sec of the
// Synchronize(NewQUASII(...)) baseline.

const throughputGoroutines = 8

func benchThroughput(b *testing.B, build func(data []quasii.Object) quasii.Index) {
	data := benchData(b)
	queries := quasii.UniformQueries(2000, 1e-3, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := build(data)
		b.StartTimer()
		bench.RunParallel("bench", func() bench.QueryIndex { return ix }, queries, throughputGoroutines)
	}
	b.ReportMetric(float64(len(queries))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

func BenchmarkThroughputMutexQUASII(b *testing.B) {
	benchThroughput(b, func(data []quasii.Object) quasii.Index {
		return quasii.Synchronize(quasii.NewQUASII(quasii.CloneObjects(data), quasii.QUASIIConfig{}))
	})
}

func BenchmarkThroughputShardedQUASII(b *testing.B) {
	benchThroughput(b, func(data []quasii.Object) quasii.Index {
		return quasii.NewSharded(data, quasii.ShardedConfig{Shards: throughputGoroutines})
	})
}

func BenchmarkThroughputRWLockRTree(b *testing.B) {
	benchThroughput(b, func(data []quasii.Object) quasii.Index {
		return quasii.SynchronizeStatic(quasii.NewRTree(data, quasii.RTreeConfig{}))
	})
}

// QueryBatch amortizes scheduling over the whole workload.
func BenchmarkThroughputShardedBatch(b *testing.B) {
	data := benchData(b)
	queries := quasii.UniformQueries(2000, 1e-3, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := quasii.NewSharded(data, quasii.ShardedConfig{Shards: throughputGoroutines})
		b.StartTimer()
		ix.QueryBatch(queries)
	}
	b.ReportMetric(float64(len(queries))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}
