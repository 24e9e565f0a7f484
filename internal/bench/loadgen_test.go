package bench

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/scan"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/workload"
)

// startServer mounts the serving subsystem over a fresh sharded index.
func startServer(tb testing.TB, n int, cfg server.Config) (*httptest.Server, []geom.Object) {
	tb.Helper()
	data := dataset.Uniform(n, 111)
	ix := shard.New(data, shard.Config{Shards: 4})
	ts := httptest.NewServer(server.New(ix, cfg).Handler())
	tb.Cleanup(ts.Close)
	return ts, data
}

// TestLoadgenSustainedMixedLoad is the acceptance run: 10k queries from 8
// concurrent clients with interleaved insert/delete cycles, every response
// checked against the scan oracle, zero mismatches allowed. Run with -race.
func TestLoadgenSustainedMixedLoad(t *testing.T) {
	ts, data := startServer(t, 20000, server.Config{
		BatchWindow: 200 * time.Microsecond,
		FlushEvery:  256,
	})
	oracle := scan.New(data)
	res := RunLoadgen(LoadgenConfig{
		BaseURL:    ts.URL,
		Clients:    8,
		Queries:    workload.Uniform(dataset.Universe(), 10000, 1e-4, 17),
		Oracle:     func(q geom.Box) []int32 { return oracle.Query(q, nil) },
		WriteEvery: 50,
	})
	PrintLoadgen(io.Discard, res) // exercise the printer
	if res.Queries != 10000 {
		t.Errorf("completed %d/10000 queries", res.Queries)
	}
	if res.Mismatches != 0 {
		t.Errorf("%d oracle mismatches", res.Mismatches)
	}
	if res.Errors != 0 {
		t.Errorf("%d errors", res.Errors)
	}
	if res.Writes == 0 {
		t.Error("no write cycles completed")
	}
}

// TestLoadgenAbsorbsBackpressure: a deliberately starved server (2 admitted
// requests, long window) must reject bursts with 429, and the retrying
// clients must still complete the whole workload correctly.
func TestLoadgenAbsorbsBackpressure(t *testing.T) {
	ts, data := startServer(t, 2000, server.Config{
		BatchWindow: 5 * time.Millisecond,
		MaxInFlight: 2,
	})
	oracle := scan.New(data)
	res := RunLoadgen(LoadgenConfig{
		BaseURL:    ts.URL,
		Clients:    16,
		Queries:    workload.Uniform(dataset.Universe(), 200, 1e-3, 19),
		Oracle:     func(q geom.Box) []int32 { return oracle.Query(q, nil) },
		MaxRetries: 10000,
	})
	if res.Queries != 200 {
		t.Errorf("completed %d/200 queries (errors %d)", res.Queries, res.Errors)
	}
	if res.Rejected == 0 {
		t.Error("no 429 was seen despite MaxInFlight=2 and 16 clients")
	}
	if res.Mismatches != 0 {
		t.Errorf("%d oracle mismatches", res.Mismatches)
	}
}

// latencyLine returns PrintLoadgen's client latency line for r.
func latencyLine(t *testing.T, r *LoadgenResult) string {
	t.Helper()
	var sb strings.Builder
	PrintLoadgen(&sb, r)
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "latency: ") {
			return line
		}
	}
	t.Fatalf("no latency line in:\n%s", sb.String())
	return ""
}

// TestLoadgenLatencyLine pins the client latency line: its quantiles are
// the histogram's own estimate (the estimator behind the server-side line),
// its mean and max are exact, and a run with no successful query prints
// zeros.
func TestLoadgenLatencyLine(t *testing.T) {
	r := &LoadgenResult{Latencies: newLatencies(), MaxLatency: 40 * time.Millisecond}
	for _, d := range []time.Duration{300 * time.Microsecond, 700 * time.Microsecond,
		2 * time.Millisecond, 40 * time.Millisecond} {
		r.Latencies.ObserveDuration(d)
	}
	q := func(p float64) time.Duration {
		v, ok := r.Latencies.Quantile(p)
		if !ok {
			t.Fatalf("Quantile(%g) not computable", p)
		}
		return time.Duration(v * float64(time.Second)).Round(time.Microsecond)
	}
	want := fmt.Sprintf("latency: mean 10.75ms  max 40ms  p50 %v  p95 %v  p99 %v (from histogram buckets)",
		q(0.50), q(0.95), q(0.99))
	if got := latencyLine(t, r); got != want {
		t.Errorf("latency line\n got %q\nwant %q", got, want)
	}

	// A server that fails every query: nothing is observed, all zeros.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "broken", http.StatusInternalServerError)
	}))
	defer ts.Close()
	r = RunLoadgen(LoadgenConfig{BaseURL: ts.URL, Clients: 2,
		Queries: workload.Uniform(dataset.Universe(), 3, 1e-3, 41)})
	if r.Queries != 0 || r.Errors != 3 {
		t.Fatalf("queries=%d errors=%d against an always-500 server, want 0/3", r.Queries, r.Errors)
	}
	if got, want := latencyLine(t, r),
		"latency: mean 0s  max 0s  p50 0s  p95 0s  p99 0s (from histogram buckets)"; got != want {
		t.Errorf("latency line\n got %q\nwant %q", got, want)
	}
}

// BenchmarkServeLoadgen measures end-to-end HTTP throughput of the serving
// subsystem: 8 loadgen clients draining b.N queries.
func BenchmarkServeLoadgen(b *testing.B) {
	ts, _ := startServer(b, 50000, server.Config{BatchWindow: 200 * time.Microsecond})
	queries := workload.Uniform(dataset.Universe(), b.N, 1e-4, 23)
	b.ResetTimer()
	res := RunLoadgen(LoadgenConfig{BaseURL: ts.URL, Clients: 8, Queries: queries})
	b.StopTimer()
	if res.Errors != 0 {
		b.Fatalf("%d errors", res.Errors)
	}
	b.ReportMetric(res.QPS(), "queries/s")
}
