package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// reported is one metric of one workload as printed and recorded.
type reported struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadResult is everything one run of one workload produced. It is
// written as result-<workload>.json (or layers-<workload>.json for a traced
// run); struct fields keep their order and maps are written with sorted
// keys, so two files diff cleanly.
type workloadResult struct {
	Schema     string       `json:"schema"`
	Workload   string       `json:"workload"`
	Spec       workloadSpec `json:"spec"`
	Options    options      `json:"options"`
	Env        environment  `json:"environment"`
	ServeFlags []string     `json:"serve_flags,omitempty"` // quasii-serve's command line, -addr aside
	Fsync      string       `json:"fsync_policy"`

	Correct    bool   `json:"correct"`
	Attempted  int64  `json:"attempted"`
	Failed     int64  `json:"failed"`
	FirstError string `json:"first_error,omitempty"`

	EndToEnd []reported `json:"end_to_end,omitempty"`
	PerLayer []reported `json:"per_layer,omitempty"`

	// Diagnostics: reported, never gated.
	Timings  map[string]timing  `json:"timings,omitempty"` // sample counts and the highest supported percentile per latency
	Rounds   []roundTimes       `json:"rounds,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`
	Extra    map[string]float64 `json:"diagnostics,omitempty"`
	BuildS   float64            `json:"build_s"` // go build of quasii-serve; not part of setup_s
	WallS    float64            `json:"wall_s"`

	Claim *string `json:"claim"` // always null: the benchmark claims no gain
}

const schemaVersion = "quasii-benchmark/1"

// runWorkload prepares the inputs, runs the journey (or, with -trace 1, the
// traced twin and the layer probes) and assembles the result.
func runWorkload(root string, spec workloadSpec, opts options) (*workloadResult, error) {
	t0 := time.Now()
	if opts.Scale == "smoke" {
		spec = scaleSmoke(spec)
	}
	res := &workloadResult{
		Schema: schemaVersion, Workload: spec.Name, Spec: spec, Options: opts,
		Env: newEnvironment(root), Fsync: "none (memory only)",
	}
	scratch, err := house.tempDir(filepath.Join(root, ".bench_build", "tmp"), spec.Name+"-")
	if err != nil {
		return nil, err
	}
	in, err := newInputs(spec, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	if opts.Trace == 1 {
		err = runTraced(res, root, scratch, in, opts)
	} else {
		err = runEndToEnd(res, root, scratch, in, opts)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.WallS = time.Since(t0).Seconds()
	return res, nil
}

// clientsOf resolves the closed-loop client count of a workload.
func clientsOf(spec workloadSpec) int {
	if spec.Clients > 0 {
		return spec.Clients
	}
	return runtime.NumCPU()
}

// newTarget builds the system under test for in at its workload's depth.
func newTarget(res *workloadResult, root, scratch string, in *inputs) (target, error) {
	switch in.spec.Depth {
	case "core":
		return &coreTarget{in: in, dir: scratch}, nil
	case "shard":
		return &shardTarget{in: in, dir: scratch}, nil
	case "http":
		bin, took, err := buildServe(root, scratch)
		if err != nil {
			return nil, err
		}
		res.BuildS = took.Seconds()
		// One connection per reader plus the writer's.
		t := newHTTPTarget(in, scratch, bin, clientsOf(in.spec)+1)
		res.ServeFlags = t.args
		if in.spec.Durable {
			res.Fsync = "always"
		}
		return t, nil
	}
	return nil, fmt.Errorf("unknown depth %q", in.spec.Depth)
}

func runEndToEnd(res *workloadResult, root, scratch string, in *inputs, opts options) error {
	tgt, err := newTarget(res, root, scratch, in)
	if err != nil {
		return err
	}
	perRound := time.Duration(opts.Seconds) * time.Second / time.Duration(in.spec.Rounds)
	j := newJourney(in, tgt, clientsOf(in.spec), perRound, nil)
	if err := j.run(); err != nil {
		return err
	}
	res.fill(j)
	return nil
}

// fill turns a finished journey into the reported metrics.
func (res *workloadResult) fill(j *journey) {
	res.Attempted, res.Failed = j.ops()
	if j.firstErr != nil {
		res.FirstError = j.firstErr.Error()
	}
	res.Rounds = j.rounds
	res.Counters = j.counters

	col := func(f func(roundTimes) float64) float64 {
		xs := make([]float64, len(j.rounds))
		for i, rt := range j.rounds {
			xs[i] = f(rt)
		}
		return median(xs)
	}
	// Pooled over the rounds: sample counts and the highest percentile they
	// support, beside the per-round medians that are gated.
	res.Timings = map[string]timing{"read": summarise(j.readNs), "write": summarise(j.writeNs)}
	values := map[string]float64{
		"setup_s":        col(func(r roundTimes) float64 { return r.SetupS }),
		"first_query_ms": col(func(r roundTimes) float64 { return r.FirstQueryMs }),
		"cumulative_s":   col(func(r roundTimes) float64 { return r.CumulativeS }),
		"read_p50_us":    col(func(r roundTimes) float64 { return r.ReadP50us }),
		"read_qps":       col(func(r roundTimes) float64 { return r.ReadQPS }),
		"batch_qps":      col(func(r roundTimes) float64 { return r.BatchQPS }),
		"write_p50_us":   col(func(r roundTimes) float64 { return r.WriteP50us }),
		"write_ops_s":    col(func(r roundTimes) float64 { return r.WriteOpsS }),
		"recovery_s":     col(func(r roundTimes) float64 { return r.RecoveryS }),
		"peak_rss_mb":    j.peakRSS,
	}
	for _, m := range endToEnd {
		res.EndToEnd = append(res.EndToEnd, reported{m.Name, m.Unit, values[m.Name], m.Better, m.Bound})
	}
	res.Extra = map[string]float64{
		// The p99s are medians over the rounds like everything else, but
		// they do not hold a 25 % bound from seed to seed (flush and
		// re-crack stalls decide them), so they are reported, not gated.
		"read_p99_us":     col(func(r roundTimes) float64 { return r.ReadP99us }),
		"write_p99_us":    col(func(r roundTimes) float64 { return r.WriteP99us }),
		"delete_p50_us":   median(j.deleteP50us),
		"allocs_per_read": j.readAllocs,
		"failed_ratio":    float64(res.Failed) / float64(max(res.Attempted, 1)),
	}
	if len(j.coldNs) >= 1000 {
		var sum int64
		for _, v := range j.coldNs[:1000] {
			sum += v
		}
		res.Extra["crack_phase_ms"] = float64(sum) / 1e6
	}
	if c := res.Counters; c != nil {
		if c["core.result_objects"] > 0 {
			res.Extra["tested_per_result"] = c["core.objects_tested"] / c["core.result_objects"]
		}
		if q := c["core.queries"] + c["core.shared_queries"]; q > 0 {
			res.Extra["shared_ratio"] = c["core.shared_queries"] / q
		}
		if j.in.spec.Durable {
			// Every accepted write is one update; the server folds pending
			// updates in after each mixedFlushEvery of them.
			res.Extra["flushes"] = float64(int(c["durable.updates"]) / mixedFlushEvery)
			res.Extra["checkpoints"] = c["durable.checkpoints"]
		}
	}
}

// driverLine is the last line of stdout in -workload mode: exactly the keys
// the driver reads, with every end-to-end metric (or, traced, every
// per-layer metric) by name.
func (res *workloadResult) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := res.EndToEnd
	if res.Options.Trace == 1 {
		list = res.PerLayer
	}
	metrics := make(map[string]mv, len(list))
	for _, m := range list {
		metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		// Only NaN or Inf can get here; report the run as failed.
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, max(res.Attempted, 1), max(res.Failed, 1))
	}
	return string(b)
}

// print writes the human-readable report of one workload.
func (res *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  (seed %d, %d s, scale %s, %s depth, %d clients, %d rounds)\n",
		res.Workload, res.Options.Seed, res.Options.Seconds, res.Options.Scale,
		res.Spec.Depth, clientsOf(res.Spec), res.Spec.Rounds)
	for _, m := range res.EndToEnd {
		fmt.Fprintf(w, "  %-34s %16.4f %-6s (bound %2.0f %%, %s is better)\n", m.Name, m.Value, m.Unit, m.Bound*100, m.Better)
	}
	for _, m := range res.PerLayer {
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, name := range []string{"read", "write"} {
		if t, ok := res.Timings[name]; ok && t.Samples > 0 {
			fmt.Fprintf(w, "  %-34s %d samples; highest supported percentile p%g = %.2f us; max %.2f us\n",
				name+" latency", t.Samples, t.HiPct, t.HiUs, t.MaxUs)
		}
	}
	for _, k := range sortedKeys(res.Extra) {
		fmt.Fprintf(w, "  %-34s %16.4f (diagnostic)\n", k, res.Extra[k])
	}
	fmt.Fprintf(w, "  %-34s %d of %d operations failed\n", "correctness", res.Failed, res.Attempted)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v interface{}) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// gitCommit names the measured tree; the driver's checkout is not a git
// repository, and then the commit is simply unknown.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSet is one pass over all workloads: what `quasii-benchmark` without
// -workload produces and what stability and compare consume.
type runSet struct {
	Schema    string            `json:"schema"`
	Options   options           `json:"options"`
	Env       environment       `json:"environment"`
	Workloads []*workloadResult `json:"workloads"`
	Claim     *string           `json:"claim"`
}

// runAll runs every workload as a child process of its own, so that each
// gets a clean peak-RSS reading and a hard timeout that can be enforced by
// killing it, and collects what the children recorded.
func runAll(root string, opts options) (*runSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Out, 0o755); err != nil {
		return nil, err
	}
	set := &runSet{Schema: schemaVersion, Options: opts, Env: newEnvironment(root)}
	for _, w := range workloads {
		args := []string{
			"-workload", w.Name, "-seed", fmt.Sprint(opts.Seed), "-seconds", fmt.Sprint(opts.Seconds),
			"-trace", fmt.Sprint(opts.Trace), "-scale", opts.Scale, "-out", opts.Out,
		}
		cmd := exec.Command(self, args...)
		cmd.Dir = root
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			os.Stdout.Write(out.Bytes())
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		// The child's report, minus the driver's line, is this run's report.
		text := strings.TrimRight(out.String(), "\n")
		if i := strings.LastIndexByte(text, '\n'); i >= 0 {
			fmt.Println(text[:i])
		}
		var res workloadResult
		if err := readJSON(filepath.Join(opts.Out, resultFile(w.Name, opts.Trace)), &res); err != nil {
			return nil, err
		}
		set.Workloads = append(set.Workloads, &res)
	}
	return set, nil
}

// reportAll records the set, prints the predictions beside the results and
// ends with the claim, which is always null.
func reportAll(set *runSet, opts options) int {
	name := "results.json"
	if opts.Trace == 1 {
		name = "layers.json"
	}
	path := filepath.Join(opts.Out, name)
	if err := writeJSON(path, set); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println()
	fmt.Println(predictions)
	fmt.Printf("\nrecorded in %s\n", path)
	fmt.Println(`"claim": null`)
	return 0
}

const predictions = `Predictions (what a later change should and should not move):
  - On an idle system a faster layer saves at most its share of the blocking path.
  - colstore / core changes should move crack_stream and embed_parallel and leave serve_read flat.
  - server / socket changes should move serve_read (and serve_mixed) and leave crack_stream and embed_parallel flat.
  - serve_mixed is the only workload where wal, durable, tombstone and pending costs sit on the request path;
    its p99s, not its medians, carry the flush and checkpoint stalls.`
