// Package bench is the experiment harness: it runs an index (static or
// incremental) against a query workload, recording build time and per-query
// latencies, and derives the metrics the QUASII paper reports — convergence
// series, cumulative execution time (including the build step for static
// indexes), break-even points, and data-to-insight (first-query) speedups.
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/geom"
)

// QueryIndex is the minimal interface every measured index satisfies.
type QueryIndex interface {
	Query(q geom.Box, out []int32) []int32
}

// Series is one measured index run over a workload.
type Series struct {
	Name     string
	Build    time.Duration   // pre-processing time (0 for incremental indexes)
	PerQuery []time.Duration // latency of each query, in workload order
	Counts   []int           // result cardinality of each query (for validation)
}

// Run builds an index with build() (timing it) and executes every query
// (timing each), returning the measured series.
func Run(name string, build func() QueryIndex, queries []geom.Box) *Series {
	s := &Series{
		Name:     name,
		PerQuery: make([]time.Duration, 0, len(queries)),
		Counts:   make([]int, 0, len(queries)),
	}
	t0 := time.Now()
	ix := build()
	s.Build = time.Since(t0)
	var buf []int32
	for _, q := range queries {
		t0 = time.Now()
		buf = ix.Query(q, buf[:0])
		s.PerQuery = append(s.PerQuery, time.Since(t0))
		s.Counts = append(s.Counts, len(buf))
	}
	return s
}

// Cumulative returns the running total of execution time: Build plus all
// queries up to and including index i.
func (s *Series) Cumulative() []time.Duration {
	out := make([]time.Duration, len(s.PerQuery))
	sum := s.Build
	for i, d := range s.PerQuery {
		sum += d
		out[i] = sum
	}
	return out
}

// QueryTime returns the summed latency of all queries, build excluded.
func (s *Series) QueryTime() time.Duration { return sum(s.PerQuery) }

// Total returns build time plus all query time.
func (s *Series) Total() time.Duration { return s.Build + s.QueryTime() }

// FirstQuery returns the data-to-insight time: build time plus the first
// query's latency (the paper's headline metric).
func (s *Series) FirstQuery() time.Duration {
	if len(s.PerQuery) == 0 {
		return s.Build
	}
	return s.Build + s.PerQuery[0]
}

// TailMean returns the mean latency of the last n queries — a proxy for
// converged query performance. It is 0 when there are no queries.
func (s *Series) TailMean(n int) time.Duration {
	if n > len(s.PerQuery) {
		n = len(s.PerQuery)
	}
	if n <= 0 {
		return 0
	}
	return sum(s.PerQuery[len(s.PerQuery)-n:]) / time.Duration(n)
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// BreakEven returns the index of the first query after which the cumulative
// time of s exceeds the cumulative time of static, or -1 if it never does.
// This is the paper's break-even metric for incremental vs. static indexing.
func BreakEven(s, static *Series) int {
	a, b := s.Cumulative(), static.Cumulative()
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] > b[i] {
			return i
		}
	}
	return -1
}

// ValidateCounts checks that all series returned identical result
// cardinalities for every query — the cheap cross-index sanity check the
// harness applies to every experiment.
func ValidateCounts(series ...*Series) error {
	if len(series) < 2 {
		return nil
	}
	ref := series[0]
	for _, s := range series[1:] {
		if len(s.Counts) != len(ref.Counts) {
			return fmt.Errorf("%s answered %d queries, %s answered %d",
				s.Name, len(s.Counts), ref.Name, len(ref.Counts))
		}
		for i := range ref.Counts {
			if s.Counts[i] != ref.Counts[i] {
				return fmt.Errorf("query %d: %s returned %d results, %s returned %d",
					i, s.Name, s.Counts[i], ref.Name, ref.Counts[i])
			}
		}
	}
	return nil
}

// PrintConvergence writes a per-query latency table (one row per sampled
// query, one column per series) — the shape of the paper's Figs. 7, 9a, 10a/b.
func PrintConvergence(w io.Writer, every int, series ...*Series) {
	if len(series) == 0 {
		return
	}
	if every < 1 {
		every = 1
	}
	fmt.Fprintf(w, "%-8s", "query")
	for _, s := range series {
		fmt.Fprintf(w, " %14s", s.Name)
	}
	fmt.Fprintln(w)
	n := len(series[0].PerQuery)
	for i := 0; i < n; i += every {
		fmt.Fprintf(w, "%-8d", i)
		for _, s := range series {
			fmt.Fprintf(w, " %14s", fmtDur(s.PerQuery[i]))
		}
		fmt.Fprintln(w)
	}
}

// PrintCumulative writes a cumulative-time table including build cost — the
// shape of the paper's Figs. 8, 9b, 10c/d.
func PrintCumulative(w io.Writer, every int, series ...*Series) {
	if len(series) == 0 {
		return
	}
	if every < 1 {
		every = 1
	}
	fmt.Fprintf(w, "%-8s", "query")
	for _, s := range series {
		fmt.Fprintf(w, " %14s", s.Name)
	}
	fmt.Fprintln(w)
	cums := make([][]time.Duration, len(series))
	for i, s := range series {
		cums[i] = s.Cumulative()
	}
	n := len(series[0].PerQuery)
	for i := 0; i < n; i += every {
		fmt.Fprintf(w, "%-8d", i)
		for _, c := range cums {
			fmt.Fprintf(w, " %14s", fmtDur(c[i]))
		}
		fmt.Fprintln(w)
	}
}

// PrintSummary writes one line per series: build, first-query, total and
// converged-tail metrics.
func PrintSummary(w io.Writer, tail int, series ...*Series) {
	fmt.Fprintf(w, "%-14s %12s %14s %12s %14s\n", "index", "build", "first-query", "total", fmt.Sprintf("tail-%d mean", tail))
	for _, s := range series {
		fmt.Fprintf(w, "%-14s %12s %14s %12s %14s\n",
			s.Name, fmtDur(s.Build), fmtDur(s.FirstQuery()), fmtDur(s.Total()), fmtDur(s.TailMean(tail)))
	}
}

// fmtDur renders durations compactly with millisecond-ish precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	}
}
