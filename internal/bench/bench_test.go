package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/scan"
	"repro/internal/workload"
)

func TestRunRecordsSeries(t *testing.T) {
	data := dataset.Uniform(2000, 131)
	queries := workload.Uniform(dataset.Universe(), 10, 1e-2, 132)
	s := Run("scan", func() QueryIndex { return scan.New(data) }, queries)
	if s.Name != "scan" {
		t.Errorf("Name = %q", s.Name)
	}
	if len(s.PerQuery) != 10 || len(s.Counts) != 10 {
		t.Fatalf("recorded %d queries, %d counts", len(s.PerQuery), len(s.Counts))
	}
	var any bool
	for _, c := range s.Counts {
		if c > 0 {
			any = true
		}
	}
	if !any {
		t.Error("no query returned results; workload broken")
	}
}

func mkSeries(name string, build time.Duration, per ...time.Duration) *Series {
	return &Series{Name: name, Build: build, PerQuery: per, Counts: make([]int, len(per))}
}

func TestCumulativeIncludesBuild(t *testing.T) {
	s := mkSeries("x", 100, 1, 2, 3)
	cum := s.Cumulative()
	want := []time.Duration{101, 103, 106}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("Cumulative = %v, want %v", cum, want)
		}
	}
	if s.QueryTime() != 6 {
		t.Errorf("QueryTime = %d, want 6", s.QueryTime())
	}
	if s.Total() != 106 {
		t.Errorf("Total = %d", s.Total())
	}
	empty := mkSeries("empty", 100)
	if len(empty.Cumulative()) != 0 || empty.QueryTime() != 0 || empty.Total() != 100 {
		t.Errorf("empty series: Cumulative %v, QueryTime %d, Total %d",
			empty.Cumulative(), empty.QueryTime(), empty.Total())
	}
	if s.FirstQuery() != 101 {
		t.Errorf("FirstQuery = %d", s.FirstQuery())
	}
}

func TestTailMean(t *testing.T) {
	s := mkSeries("x", 0, 10, 20, 30, 40)
	if got := s.TailMean(2); got != 35 {
		t.Errorf("TailMean(2) = %d, want 35", got)
	}
	if got := s.TailMean(100); got != 25 {
		t.Errorf("TailMean(100) = %d, want 25", got)
	}
	if got := mkSeries("empty", 5).TailMean(10); got != 0 {
		t.Errorf("TailMean of no queries = %d, want 0", got)
	}
}

func TestBreakEven(t *testing.T) {
	incr := mkSeries("incr", 0, 10, 10, 10, 10)  // cum: 10 20 30 40
	static := mkSeries("static", 25, 1, 1, 1, 1) // cum: 26 27 28 29
	if got := BreakEven(incr, static); got != 2 {
		t.Errorf("BreakEven = %d, want 2 (30 > 28)", got)
	}
	never := mkSeries("never", 0, 1, 1, 1, 1)
	if got := BreakEven(never, static); got != -1 {
		t.Errorf("BreakEven = %d, want -1", got)
	}
}

func TestValidateCounts(t *testing.T) {
	a := &Series{Name: "a", Counts: []int{1, 2, 3}}
	b := &Series{Name: "b", Counts: []int{1, 2, 3}}
	if err := ValidateCounts(a, b); err != nil {
		t.Fatalf("identical counts rejected: %v", err)
	}
	c := &Series{Name: "c", Counts: []int{1, 9, 3}}
	if err := ValidateCounts(a, c); err == nil {
		t.Fatal("mismatched counts accepted")
	}
	d := &Series{Name: "d", Counts: []int{1, 2}}
	if err := ValidateCounts(a, d); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := ValidateCounts(a); err != nil {
		t.Fatal("single series should validate")
	}
}

func TestPrintersProduceTables(t *testing.T) {
	a := mkSeries("alpha", 5, 10, 20, 30)
	b := mkSeries("beta", 0, 15, 25, 35)
	var buf bytes.Buffer
	PrintConvergence(&buf, 1, a, b)
	out := buf.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Fatalf("convergence table missing headers:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != 4 { // header + 3 rows
		t.Fatalf("convergence rows = %d, want 4:\n%s", got, out)
	}
	buf.Reset()
	PrintCumulative(&buf, 2, a, b)
	if got := strings.Count(buf.String(), "\n"); got != 3 { // header + rows 0,2
		t.Fatalf("cumulative rows = %d, want 3:\n%s", got, buf.String())
	}
	buf.Reset()
	PrintSummary(&buf, 2, a, b)
	if !strings.Contains(buf.String(), "first-query") {
		t.Fatalf("summary missing columns:\n%s", buf.String())
	}
}

func TestQueryBoxTypeCompatible(t *testing.T) {
	// Compile-time check that scan satisfies QueryIndex.
	var _ QueryIndex = scan.New(nil)
	_ = geom.Box{}
}
