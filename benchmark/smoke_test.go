package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/schema.golden from this run")

// smoke runs all four workloads once at the smoke scale and keeps what they
// reported for the tests below.
var smoke struct {
	once    sync.Once
	results []*workloadResult
	took    time.Duration
	err     error
}

func smokeResults(t *testing.T) []*workloadResult {
	t.Helper()
	if testing.Short() {
		t.Skip("launches quasii-serve; skipped with -short")
	}
	smoke.once.Do(func() {
		root, err := repoRoot()
		if err != nil {
			smoke.err = err
			return
		}
		defer house.sweep()
		t0 := time.Now()
		for _, w := range workloads {
			res, err := runWorkload(root, w, options{Workload: w.Name, Seed: 1, Seconds: 1, Scale: "smoke", Out: t.TempDir()})
			if err != nil {
				smoke.err = err
				return
			}
			smoke.results = append(smoke.results, res)
		}
		smoke.took = time.Since(t0)
	})
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	return smoke.results
}

func TestSmokeDrivesAllWorkloadsEndToEnd(t *testing.T) {
	results := smokeResults(t)
	if smoke.took > 20*time.Second {
		t.Errorf("smoke scale took %v, want under 20 s", smoke.took)
	}
	for _, res := range results {
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d of %d failed: %s", res.Workload, res.Correct, res.Failed, res.Attempted, res.FirstError)
		}
		if len(res.EndToEnd) != len(endToEnd) {
			t.Errorf("%s reports %d end-to-end metrics, want %d", res.Workload, len(res.EndToEnd), len(endToEnd))
		}
		for _, m := range res.EndToEnd {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want a positive number on every workload", res.Workload, m.Name, m.Value)
			}
		}
		if res.Claim != nil {
			t.Errorf("%s claims %q; the benchmark claims nothing", res.Workload, *res.Claim)
		}
		// The driver's line: exactly four keys, every end-to-end metric.
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(res.driverLine()), &line); err != nil {
			t.Fatal(err)
		}
		if keys := sortedKeysOf(line); strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
			t.Errorf("driver line keys = %v", keys)
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		for _, m := range endToEnd {
			if got, ok := metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("%s: driver line lacks %s in %s", res.Workload, m.Name, m.Unit)
			}
		}
		if len(metrics) != len(endToEnd) {
			t.Errorf("%s: driver line has %d metrics, want %d", res.Workload, len(metrics), len(endToEnd))
		}
	}
	if c := results[0].Counters; c["core.cracks"] == 0 || c["core.objects_tested"] == 0 {
		t.Errorf("crack_stream counters missing: %v", c)
	}
	// One second of the smoke scale is too short for a checkpoint; a flush
	// it does see, which shows the durable counters reach the report.
	if x := results[3].Extra; x["flushes"] < 1 {
		t.Errorf("serve_mixed saw %v flushes", x["flushes"])
	}
}

func sortedKeysOf(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// keyPaths lists every key path of a JSON document, arrays as [].
func keyPaths(prefix string, v interface{}, into map[string]bool) {
	switch x := v.(type) {
	case map[string]interface{}:
		for k, c := range x {
			p := prefix + "." + k
			into[p] = true
			keyPaths(p, c, into)
		}
	case []interface{}:
		for _, c := range x {
			keyPaths(prefix+"[]", c, into)
		}
	}
}

// The recorded result's shape is a contract with compare, with stability and
// with whoever diffs two files: any change to it shows up here.
func TestResultSchemaGolden(t *testing.T) {
	paths := map[string]bool{}
	for _, res := range smokeResults(t) {
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var doc interface{}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		keyPaths("result", doc, paths)
	}
	var lines []string
	for p := range paths {
		lines = append(lines, p)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "schema.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("result schema changed (run go test -run Schema -update to accept):\n--- got\n%s--- want\n%s", got, want)
	}
}

// BENCHMARK.json repeats spec.go for the driver and has to satisfy the
// driver's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(b) > 64<<10 {
		t.Errorf("paths %v, run_seconds %d, %d bytes", doc.Paths, doc.RunSeconds, len(b))
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, spec has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || !name.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d chars)", i, w.Name, len(w.Why))
		}
	}
	check := func(kind string, got, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, spec has %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better || (bounded && m.Bound != w.Bound) {
				t.Errorf("%s %d: %+v, spec has %+v", kind, i, m, w)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || seen[m.Name] {
				t.Errorf("%s %d: %q / %q / %q breaks the driver's limits", kind, i, m.Name, m.Unit, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
			}
			seen[m.Name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.EndToEnd) > 16 || len(doc.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the limits", len(doc.EndToEnd), len(doc.PerLayer))
	}
	if doc.EndToEnd[0].Name != "setup_s" || doc.EndToEnd[0].Unit != "s" || doc.EndToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better")
	}
}
