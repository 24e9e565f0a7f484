package server

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/shard"
	"repro/internal/workload"
)

// newDebugServer builds a server over a known 3-shard index with heat
// tracking on every touch, so the introspection payloads are fully
// deterministic in shape.
func newDebugServer(t *testing.T, data []geom.Object, cfg Config) (*httptest.Server, *shard.Index, *Server) {
	t.Helper()
	ix := shard.New(data, shard.Config{
		Shards:    3,
		SubConfig: core.Config{HeatSampleEvery: 1},
	})
	s := New(ix, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, ix, s
}

// TestDebugIndexEndpoint drives a converged 3-shard build end to end and
// checks /debug/index: tile layout, census aggregation, heat presence, and
// ?maxdepth= truncation semantics.
func TestDebugIndexEndpoint(t *testing.T) {
	data := dataset.Uniform(6000, 171)
	ts, ix, _ := newDebugServer(t, data, Config{BatchWindow: -1})
	client := ts.Client()

	for _, q := range workload.Uniform(dataset.Universe(), 40, 1e-3, 172) {
		var qr QueryResponse
		if code := call(t, client, http.MethodPost, ts.URL+"/query",
			QueryRequest{BoxJSON: BoxToJSON(q)}, &qr); code != http.StatusOK {
			t.Fatalf("query: %d", code)
		}
	}
	ix.Complete()

	var full shard.IndexReport
	if code := call(t, client, http.MethodGet, ts.URL+"/debug/index", nil, &full); code != http.StatusOK {
		t.Fatalf("GET /debug/index: %d", code)
	}
	if full.Shards != 3 {
		t.Fatalf("shards = %d, want 3", full.Shards)
	}
	if full.Objects != len(data) {
		t.Fatalf("objects = %d, want %d", full.Objects, len(data))
	}
	if len(full.Tiles) != 3 {
		t.Fatalf("tiles = %d, want 3 (one per shard)", len(full.Tiles))
	}
	if !full.Converged {
		t.Fatal("completed index not reported converged")
	}
	if full.SlicesRefined != full.Slices || full.Slices == 0 {
		t.Fatalf("census %d/%d refined, want fully refined and non-empty",
			full.SlicesRefined, full.Slices)
	}
	if full.TotalHeat == 0 {
		t.Fatal("no heat recorded with HeatSampleEvery=1")
	}
	wantObjects, wantSlices, wantHeat := 0, 0, int64(0)
	seen := map[string]bool{}
	for _, tile := range full.Tiles {
		if seen[tile.Shard] {
			t.Fatalf("duplicate tile name %q", tile.Shard)
		}
		seen[tile.Shard] = true
		wantObjects += tile.Objects
		wantSlices += tile.Slices
		wantHeat += tile.TotalHeat
	}
	if wantObjects != full.Objects || wantSlices != full.Slices || wantHeat != full.TotalHeat {
		t.Fatalf("tile sums (%d objects, %d slices, %d heat) != aggregates (%d, %d, %d)",
			wantObjects, wantSlices, wantHeat, full.Objects, full.Slices, full.TotalHeat)
	}
	for i := 0; i < 3; i++ {
		if !seen[string('0'+byte(i))] {
			t.Fatalf("missing spatial tile %d in %v", i, seen)
		}
	}

	// Depth truncation drops children but keeps the full-depth census.
	var top shard.IndexReport
	if code := call(t, client, http.MethodGet, ts.URL+"/debug/index?maxdepth=1", nil, &top); code != http.StatusOK {
		t.Fatalf("GET /debug/index?maxdepth=1: %d", code)
	}
	if top.MaxDepth != 1 {
		t.Fatalf("echoed maxdepth = %d, want 1", top.MaxDepth)
	}
	if top.Slices != full.Slices || top.TotalHeat != full.TotalHeat {
		t.Fatalf("truncated census (%d slices, %d heat) != full (%d, %d)",
			top.Slices, top.TotalHeat, full.Slices, full.TotalHeat)
	}
	for _, tile := range top.Tiles {
		for _, s := range tile.Root {
			if len(s.Children) != 0 {
				t.Fatalf("tile %q still carries children at maxdepth=1", tile.Shard)
			}
		}
	}

	// Malformed and out-of-range depths: reject garbage, clamp numbers.
	if code := call(t, client, http.MethodGet, ts.URL+"/debug/index?maxdepth=bogus", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("maxdepth=bogus: %d, want 400", code)
	}
	var deep shard.IndexReport
	if code := call(t, client, http.MethodGet, ts.URL+"/debug/index?maxdepth=99", nil, &deep); code != http.StatusOK {
		t.Fatalf("maxdepth=99: %d", code)
	}
	if deep.MaxDepth != geom.Dims {
		t.Fatalf("maxdepth=99 clamps to %d, want %d", deep.MaxDepth, geom.Dims)
	}
}

// debugIndexFields is the field set of a full-depth /debug/index body, as
// key paths ("[]" marks an array element). Strict decoders of the endpoint
// (quasii-explore -live disallows unknown fields) depend on it, so a
// renamed or re-nested field of shard.IndexReport or core.InspectReport
// must show up here.
var debugIndexFields = func() []string {
	fields := []string{
		".shards", ".workers", ".objects",
		".tile_mbb", ".tile_mbb.min", ".tile_mbb.max",
		".max_depth", ".converged", ".slices", ".slices_refined", ".total_heat",
		".tiles",
	}
	for _, f := range []string{
		"shard", "tile", "tile.min", "tile.max", "bounds", "bounds.min", "bounds.max",
		"objects", "pending", "deleted", "tau", "epoch", "converged", "slices",
		"slices_refined", "heat_sample_every", "total_heat", "max_heat", "root",
	} {
		fields = append(fields, ".tiles[]."+f)
	}
	slice := []string{
		"level", "lo", "hi", "count", "box", "box.min", "box.max", "refined",
		"converged", "heat", "subtree_heat", "child_slices",
	}
	for _, node := range []string{".tiles[].root[]", ".tiles[].root[].children[]", ".tiles[].root[].children[].children[]"} {
		for _, f := range slice {
			fields = append(fields, node+"."+f)
		}
	}
	fields = append(fields, ".tiles[].root[].children", ".tiles[].root[].children[].children")
	sort.Strings(fields)
	return fields
}()

// keyPaths collects the key paths of a decoded JSON value into out.
func keyPaths(v interface{}, prefix string, out map[string]bool) {
	switch x := v.(type) {
	case map[string]interface{}:
		for k, c := range x {
			out[prefix+"."+k] = true
			keyPaths(c, prefix+"."+k, out)
		}
	case []interface{}:
		for _, c := range x {
			keyPaths(c, prefix+"[]", out)
		}
	}
}

// TestDebugIndexFieldSet pins the /debug/index wire: the field names and
// their nesting on a converged index, where every level is materialized.
func TestDebugIndexFieldSet(t *testing.T) {
	data := dataset.Uniform(3000, 179)
	ts, ix, _ := newDebugServer(t, data, Config{BatchWindow: -1})
	ix.Complete()
	var body interface{}
	if code := call(t, ts.Client(), http.MethodGet, ts.URL+"/debug/index", nil, &body); code != http.StatusOK {
		t.Fatalf("GET /debug/index: %d", code)
	}
	seen := map[string]bool{}
	keyPaths(body, "", seen)
	got := make([]string, 0, len(seen))
	for k := range seen {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(debugIndexFields, "\n") {
		t.Fatalf("/debug/index field set:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(debugIndexFields, "\n"))
	}
}

// TestDebugHeatEndpoint checks the tile×depth grid: per-level cells sum to
// the tile totals and the grid agrees with the full hierarchy report.
func TestDebugHeatEndpoint(t *testing.T) {
	data := dataset.Uniform(5000, 173)
	ts, _, _ := newDebugServer(t, data, Config{BatchWindow: -1})
	client := ts.Client()

	for _, q := range workload.Uniform(dataset.Universe(), 30, 1e-3, 174) {
		var qr QueryResponse
		if code := call(t, client, http.MethodPost, ts.URL+"/query",
			QueryRequest{BoxJSON: BoxToJSON(q)}, &qr); code != http.StatusOK {
			t.Fatalf("query: %d", code)
		}
	}

	var heat DebugHeatResponse
	if code := call(t, client, http.MethodGet, ts.URL+"/debug/heat", nil, &heat); code != http.StatusOK {
		t.Fatalf("GET /debug/heat: %d", code)
	}
	if heat.HeatSampleEvery != 1 {
		t.Fatalf("heat_sample_every = %d, want 1", heat.HeatSampleEvery)
	}
	if heat.TotalHeat == 0 {
		t.Fatal("grid reports zero heat after queries")
	}
	var sum int64
	for _, tile := range heat.Tiles {
		var tileSum int64
		for _, c := range tile.Levels {
			if c.Level < 0 || c.Level >= geom.Dims {
				t.Fatalf("cell level %d out of range", c.Level)
			}
			if c.Refined > c.Slices {
				t.Fatalf("tile %q L%d: refined %d > slices %d", tile.Shard, c.Level, c.Refined, c.Slices)
			}
			tileSum += c.Heat
		}
		if tileSum != tile.TotalHeat {
			t.Fatalf("tile %q level cells sum to %d, total says %d", tile.Shard, tileSum, tile.TotalHeat)
		}
		sum += tileSum
	}
	if sum != heat.TotalHeat {
		t.Fatalf("grid sums to %d, total says %d", sum, heat.TotalHeat)
	}

	var index shard.IndexReport
	if code := call(t, client, http.MethodGet, ts.URL+"/debug/index", nil, &index); code != http.StatusOK {
		t.Fatalf("GET /debug/index: %d", code)
	}
	if index.TotalHeat != heat.TotalHeat {
		t.Fatalf("/debug/index heat %d != /debug/heat %d", index.TotalHeat, heat.TotalHeat)
	}
}

// TestReadyzEndpoint pins the readiness contract: ready from construction,
// 503 after SetReady(false) — the drain signal — and /healthz (liveness)
// unaffected either way.
func TestReadyzEndpoint(t *testing.T) {
	data := dataset.Uniform(1000, 175)
	ts, _, s := newDebugServer(t, data, Config{BatchWindow: -1})
	client := ts.Client()

	var ready ReadyResponse
	if code := call(t, client, http.MethodGet, ts.URL+"/readyz", nil, &ready); code != http.StatusOK {
		t.Fatalf("GET /readyz: %d", code)
	}
	if !ready.Ready || ready.Status != "ready" {
		t.Fatalf("fresh server not ready: %+v", ready)
	}

	s.SetReady(false)
	if code := call(t, client, http.MethodGet, ts.URL+"/readyz", nil, &ready); code != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz while draining: %d, want 503", code)
	}
	if ready.Ready {
		t.Fatal("draining server claims ready")
	}
	var health HealthResponse
	if code := call(t, client, http.MethodGet, ts.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("liveness broke during drain: %d", code)
	}
	if health.Runtime.GoVersion == "" || health.Runtime.GOMAXPROCS <= 0 || health.Runtime.Version == "" {
		t.Fatalf("healthz runtime info incomplete: %+v", health.Runtime)
	}

	s.SetReady(true)
	if code := call(t, client, http.MethodGet, ts.URL+"/readyz", nil, &ready); code != http.StatusOK {
		t.Fatalf("GET /readyz after re-enable: %d", code)
	}
}

// TestSlowlogDropped overflows a tiny trace ring and checks the wraparound
// is accounted for: every request sampled and logged, the ring holds only
// its capacity, and the excess shows up in the dropped counter.
func TestSlowlogDropped(t *testing.T) {
	const ringSize, n = 4, 20
	data := dataset.Uniform(2000, 177)
	ts, _, _ := newDebugServer(t, data, Config{
		BatchWindow:      -1,
		TraceSampleEvery: 1,
		SlowThreshold:    0,
		SlowlogSize:      ringSize,
	})
	client := ts.Client()

	for _, q := range workload.Uniform(dataset.Universe(), n, 1e-3, 178) {
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
	if len(slow.Traces) != ringSize {
		t.Fatalf("slowlog holds %d traces, want ring capacity %d", len(slow.Traces), ringSize)
	}

	sc := scrape(t, client, ts.URL)
	if v := mustValue(t, sc, "quasii_server_traces_sampled_total", nil); v != n {
		t.Fatalf("traces sampled = %g, want %d", v, n)
	}
	if v := mustValue(t, sc, "quasii_server_slow_queries_total", nil); v != n {
		t.Fatalf("slow queries = %g, want %d", v, n)
	}
	if v := mustValue(t, sc, "quasii_server_slowlog_dropped_total", nil); v != n-ringSize {
		t.Fatalf("slowlog dropped = %g, want %d", v, n-ringSize)
	}
}
