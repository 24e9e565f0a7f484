// End-to-end observability tests: scrape GET /metrics over HTTP, parse the
// exposition strictly, and hold the registry to its contract — well-formed
// output, monotone counters under concurrent load, a rising convergence
// series, and a populated slowlog when tracing is on.

package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/geom"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// scrape GETs /metrics and strictly parses the exposition.
func scrape(t *testing.T, client *http.Client, base string) *telemetry.Scrape {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content-type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	sc, err := telemetry.ParseText(string(body))
	if err != nil {
		t.Fatalf("unparsable /metrics exposition: %v", err)
	}
	return sc
}

// mustValue reads one sample or fails.
func mustValue(t *testing.T, sc *telemetry.Scrape, name string, labels map[string]string) float64 {
	t.Helper()
	v, ok := sc.Value(name, labels)
	if !ok {
		t.Fatalf("metric %s%v missing from scrape", name, labels)
	}
	return v
}

// TestMetricsEndpoint drives traffic through every layer and checks that
// the scrape exposes coherent serving, engine, and convergence series.
func TestMetricsEndpoint(t *testing.T) {
	data := dataset.Uniform(4000, 131)
	ts, _ := newTestServer(t, data, Config{BatchWindow: -1})
	client := ts.Client()

	queries := workload.Uniform(dataset.Universe(), 50, 1e-3, 132)
	for _, q := range queries {
		var qr QueryResponse
		if code := call(t, client, http.MethodPost, ts.URL+"/query",
			QueryRequest{BoxJSON: BoxToJSON(q)}, &qr); code != http.StatusOK {
			t.Fatalf("query: %d", code)
		}
	}

	sc := scrape(t, client, ts.URL)

	if v := mustValue(t, sc, "quasii_http_requests_total", map[string]string{"endpoint": "query"}); v != 50 {
		t.Fatalf("quasii_http_requests_total{endpoint=query} = %g, want 50", v)
	}
	if v := mustValue(t, sc, "quasii_http_request_duration_seconds_count", map[string]string{"endpoint": "query"}); v != 50 {
		t.Fatalf("request duration count = %g, want 50", v)
	}
	if v := mustValue(t, sc, "quasii_server_batches_total", nil); v != 50 {
		t.Fatalf("quasii_server_batches_total = %g, want 50 (window disabled)", v)
	}
	// The engine answered real queries, so the core counters must have moved
	// and the early workload must have refined slices (the convergence curve).
	if v := mustValue(t, sc, "quasii_core_slices_refined_total", nil); v <= 0 {
		t.Fatalf("quasii_core_slices_refined_total = %g, want > 0 after a cold-start workload", v)
	}
	if v := mustValue(t, sc, "quasii_shard_fanout_width_shards_count", nil); v != 50 {
		t.Fatalf("fanout histogram count = %g, want 50", v)
	}
	if v := mustValue(t, sc, "quasii_shard_count_shards", nil); v != 4 {
		t.Fatalf("quasii_shard_count_shards = %g, want 4", v)
	}
	if v := mustValue(t, sc, "quasii_shard_total_objects", nil); v != float64(len(data)) {
		t.Fatalf("quasii_shard_total_objects = %g, want %d", v, len(data))
	}
	// Per-shard gauges carry the shard label.
	if _, ok := sc.Value("quasii_shard_live_objects", map[string]string{"shard": "0"}); !ok {
		t.Fatal(`quasii_shard_live_objects{shard="0"} missing`)
	}
	// Shared + exclusive path counts partition the per-shard probes.
	shared := mustValue(t, sc, "quasii_shard_shared_queries_total", nil)
	excl := mustValue(t, sc, "quasii_shard_exclusive_queries_total", nil)
	if shared+excl <= 0 {
		t.Fatalf("shared (%g) + exclusive (%g) probes = 0, want > 0", shared, excl)
	}
	// A duration histogram quantile must be computable from the buckets.
	if _, ok := sc.HistogramQuantile("quasii_http_request_duration_seconds",
		map[string]string{"endpoint": "query"}, 0.95); !ok {
		t.Fatal("p95 not computable from quasii_http_request_duration_seconds buckets")
	}
	// /stats summarises the same series with the same estimator, so its
	// percentiles are the scrape's, to the microsecond.
	var st StatsResponse
	if code := call(t, client, http.MethodGet, ts.URL+"/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	p50, _ := sc.HistogramQuantile("quasii_http_request_duration_seconds",
		map[string]string{"endpoint": "query"}, 0.50)
	if got, want := st.Endpoints["query"].P50Micros, int64(p50*1e6); got != want || want <= 0 {
		t.Fatalf("/stats query p50 = %d us, scrape-side quantile = %d us; want equal and positive", got, want)
	}
}

// TestMetricsCountersMonotonic scrapes concurrently with load and asserts
// every counter is non-decreasing between consecutive scrapes.
func TestMetricsCountersMonotonic(t *testing.T) {
	data := dataset.Uniform(3000, 137)
	ts, _ := newTestServer(t, data, Config{})
	client := ts.Client()

	const workers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			queries := workload.Uniform(dataset.Universe(), 200, 1e-3, seed)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var qr QueryResponse
				call(t, client, http.MethodPost, ts.URL+"/query",
					QueryRequest{BoxJSON: BoxToJSON(queries[i%len(queries)])}, &qr)
			}
		}(int64(140 + w))
	}

	type key struct{ name, labels string }
	flat := func(m map[string]string) string {
		parts := make([]string, 0, len(m))
		for k, v := range m {
			parts = append(parts, k+"="+v)
		}
		return strings.Join(parts, ",")
	}
	prev := map[key]float64{}
	for round := 0; round < 10; round++ {
		sc := scrape(t, client, ts.URL)
		for name, typ := range sc.Types {
			if typ != "counter" {
				continue
			}
			for _, s := range sc.Samples {
				if s.Name != name {
					continue
				}
				k := key{name, flat(s.Labels)}
				if last, ok := prev[k]; ok && s.Value < last {
					t.Fatalf("counter %s{%s} went backwards: %g -> %g", name, k.labels, last, s.Value)
				}
				prev[k] = s.Value
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestSlowlogEndpoint traces every request with a zero slow threshold, so
// each sampled query must land in the ring with populated stages.
func TestSlowlogEndpoint(t *testing.T) {
	data := dataset.Uniform(3000, 151)
	ts, _ := newTestServer(t, data, Config{
		BatchWindow:      -1,
		TraceSampleEvery: 1,
		SlowThreshold:    0,
		SlowlogSize:      16,
	})
	client := ts.Client()

	queries := workload.Uniform(dataset.Universe(), 8, 1e-3, 152)
	for _, q := range queries {
		var qr QueryResponse
		if code := call(t, client, http.MethodPost, ts.URL+"/query",
			QueryRequest{BoxJSON: BoxToJSON(q)}, &qr); code != http.StatusOK {
			t.Fatalf("query: %d", code)
		}
	}

	var slow SlowlogResponse
	if code := call(t, client, http.MethodGet, ts.URL+"/debug/slowlog", nil, &slow); code != http.StatusOK {
		t.Fatalf("GET /debug/slowlog: %d", code)
	}
	if len(slow.Traces) != 8 {
		t.Fatalf("slowlog has %d traces, want 8", len(slow.Traces))
	}
	for i, e := range slow.Traces {
		if e.Endpoint != "query" {
			t.Fatalf("trace %d endpoint %q, want query", i, e.Endpoint)
		}
		if e.BatchSize != 1 {
			t.Fatalf("trace %d batch size %d, want 1 (immediate path)", i, e.BatchSize)
		}
		if e.FanoutShards <= 0 {
			t.Fatalf("trace %d fanout %d, want > 0", i, e.FanoutShards)
		}
		if e.SharedProbes+e.ExclusiveProbes <= 0 {
			t.Fatalf("trace %d has no shard probes", i)
		}
	}
	// The tracer meta-counters must agree with what we drove through.
	sc := scrape(t, client, ts.URL)
	if v := mustValue(t, sc, "quasii_server_traces_sampled_total", nil); v != 8 {
		t.Fatalf("traces sampled = %g, want 8", v)
	}
	if v := mustValue(t, sc, "quasii_server_slow_queries_total", nil); v != 8 {
		t.Fatalf("slow queries = %g, want 8", v)
	}
}

// TestStatsDurabilitySection checks that a durability-backed server folds
// WAL and checkpoint state into /stats, and that the matching quasii_store_*
// and quasii_wal_* series appear on a shared registry.
func TestStatsDurabilitySection(t *testing.T) {
	data := dataset.Uniform(1500, 161)
	dir := t.TempDir()
	store, err := durable.Open(dir, durable.Options{
		Shard:     shard.Config{Shards: 2},
		Bootstrap: func() []geom.Object { return data },
		Fsync:     durable.FsyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := telemetry.NewRegistry()
	store.Instrument(reg)
	s := New(store.Index(), Config{Durability: store, Telemetry: reg})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	client := ts.Client()

	obj := ObjectJSON{ID: 920_001, BoxJSON: BoxToJSON(geom.BoxAt(geom.Point{7, 7, 7}, 1))}
	var ir InsertResponse
	if code := call(t, client, http.MethodPost, ts.URL+"/insert",
		InsertRequest{Objects: []ObjectJSON{obj}}, &ir); code != http.StatusOK {
		t.Fatalf("insert: %d", code)
	}
	var sr SnapshotResponse
	if code := call(t, client, http.MethodPost, ts.URL+"/snapshot", nil, &sr); code != http.StatusOK {
		t.Fatalf("snapshot: %d", code)
	}

	var st StatsResponse
	if code := call(t, client, http.MethodGet, ts.URL+"/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if !st.Durability.Enabled {
		t.Fatal("stats durability section not enabled with a durable store")
	}
	if st.Durability.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", st.Durability.Checkpoints)
	}
	if st.Durability.SnapshotSeq != sr.Seq {
		t.Fatalf("snapshot seq %d, want %d", st.Durability.SnapshotSeq, sr.Seq)
	}
	if st.Durability.LastCheckpointSeconds <= 0 {
		t.Fatal("last checkpoint duration not recorded")
	}

	sc := scrape(t, client, ts.URL)
	if v := mustValue(t, sc, "quasii_store_checkpoints_total", nil); v != 1 {
		t.Fatalf("quasii_store_checkpoints_total = %g, want 1", v)
	}
	if v := mustValue(t, sc, "quasii_wal_appends_total", nil); v < 1 {
		t.Fatalf("quasii_wal_appends_total = %g, want >= 1 (insert was logged)", v)
	}
	if v := mustValue(t, sc, "quasii_store_updates_total", nil); v != 1 {
		t.Fatalf("quasii_store_updates_total = %g, want 1", v)
	}
}

// TestStatsDurabilityDisabled: without a store the section stays zeroed.
func TestStatsDurabilityDisabled(t *testing.T) {
	ts, _ := newTestServer(t, dataset.Uniform(300, 171), Config{})
	var st StatsResponse
	if code := call(t, ts.Client(), http.MethodGet, ts.URL+"/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Durability.Enabled {
		t.Fatal("durability section enabled without a store")
	}
}
