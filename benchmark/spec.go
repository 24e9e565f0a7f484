package main

// This file is the benchmark's vocabulary: the workloads, the end-to-end
// metrics with their regression bounds, and the sizes of each scale. Later
// issues name a (metric, workload) pair from here; BENCHMARK.json at the
// repository root repeats the same names for the driver, and a test keeps
// the two in step.

// metricSpec describes one reported number.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // share of the parent's median a gated metric may worsen by
	What   string  `json:"-"`
}

// endToEnd lists the gated metrics, in reporting order. Every workload
// walks the same journey at its own depth of the stack (cold stream →
// singleton reads → batch reads → writes → crash and recover), so every
// metric exists on every workload and a row read across the workloads is
// the cost of that operation from the core index out to the socket.
//
// Bounds: 25 % everywhere, the most the driver allows. On the 2-vCPU box
// the benchmark was written on, the spread of a metric across ten seeds
// (README.md has the table) reaches 7–12 % on the in-process workloads, whose
// nproc goroutines leave the collector and the kernel no core of their own,
// and a bound has to clear three times the spread to be safe. One bound
// serves all four workloads, so the noisiest cell sets it. serve_read's
// latencies hold within 1 %; `compare` prints each cell's own spread.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, "dataset generation + index build or process launch + warm-up to convergence, up to the first timed steady-state operation (crack_stream: up to query #1)"},
	{"first_query_ms", "ms", "lower", 0.25, "latency of query #1 on the unindexed data (paper: about one scan)"},
	{"cumulative_s", "s", "lower", 0.25, "wall time to answer the whole cold query stream once (paper fig. 8, data-to-insight)"},
	{"read_p50_us", "us", "lower", 0.25, "median latency of one range query as the caller sees it"},
	{"read_qps", "1/s", "higher", 0.25, "singleton range queries answered per second at the stated client count (crack_stream: over the whole cold stream)"},
	{"batch_qps", "1/s", "higher", 0.25, "queries per second through the batch entry point, 64 boxes per call"},
	{"write_p50_us", "us", "lower", 0.25, "median ack latency of one insert, fsync included where the workload is durable (deletes: write_ops_s and the delete_p50_us diagnostic)"},
	{"write_ops_s", "1/s", "higher", 0.25, "acked writes per second from one writer"},
	{"recovery_s", "s", "lower", 0.25, "crash to answering again: Load / Restore of the persisted index, or SIGKILL until the restarted process answers /readyz 200"},
	{"peak_rss_mb", "MiB", "lower", 0.25, "VmHWM of the process holding the index"},
}

// workloadSpec is one row of the workload table. Why is the one-line reason
// BENCHMARK.json repeats (at most 200 characters); README.md has the long form.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	Depth       string  `json:"depth"`   // core, shard or http: how much of the stack an operation crosses
	Data        string  `json:"dataset"` // uniform: the paper's synthetic dataset (see README.md on why not neuro)
	N           int     `json:"n"`
	Queries     string  `json:"queries"` // clustered, uniform or zipf
	Pool        int     `json:"pool"`
	Selectivity float64 `json:"selectivity"`
	Clients     int     `json:"clients"` // closed-loop callers in the read and batch phases (0 = nproc)
	Shards      int     `json:"shards"`  // 0 = nproc
	Mixed       bool    `json:"mixed"`   // one reader beside the writer instead of separate read and write phases
	Durable     bool    `json:"durable"`
	Rounds      int     `json:"rounds"` // fresh set-ups per run; one-shot metrics are medians over them
}

// The four workloads. Sizes are those of the full scale; see scaleSmoke.
var workloads = []workloadSpec{
	{
		Name:  "crack_stream",
		Why:   "The paper's curve at core depth: one goroutine, clustered stream from cold. colstore.Partition and the exclusive walk do the work; server/wal/durable none, so a serving-stack change must not move it.",
		Depth: "core", Data: "uniform", N: 2_000_000, Queries: "clustered", Pool: 5120, Selectivity: 1e-4,
		Clients: 1, Rounds: 7,
	},
	{
		Name:  "embed_parallel",
		Why:   "Library use of the converged shared read path: nproc goroutines on a sharded index, uniform queries touch every slice (working set far beyond the CPU cache). Bypasses the server.",
		Depth: "shard", Data: "uniform", N: 2_000_000, Queries: "uniform", Pool: 16384, Selectivity: 1e-4,
		Rounds: 4,
	},
	{
		Name:  "serve_read",
		Why:   "A separate quasii-serve process, default flags: index work is microseconds, so decode, the 2 ms coalescing window, encode and net/http dominate. A colstore/core kernel change must not move it.",
		Depth: "http", Data: "uniform", N: 1_000_000, Queries: "zipf", Pool: 8192, Selectivity: 1e-4,
		Shards: 2, Rounds: 3,
	},
	{
		Name:  "serve_mixed",
		Why:   "The same server, durable (fsync always), one reader beside one writer: WAL, fsync, pending scans, tombstone copies, flushes and checkpoints sit on or behind the request path; then SIGKILL, audit.",
		Depth: "http", Data: "uniform", N: 1_000_000, Queries: "zipf", Pool: 8192, Selectivity: 1e-4,
		Clients: 1, Shards: 2, Mixed: true, Durable: true, Rounds: 3,
	},
}

// Fixed parameters of every workload, stated so both sides of an A/B run
// the same thing.
const (
	batchSize            = 64   // boxes per batch call
	zipfSkew             = 1.2  // hot-spot skew of the serve_* query pools
	clusterCount         = 5    // query clusters of crack_stream, as in the paper
	clusterSigma         = 200  // spread of clustered query centres, universe units
	writeLag             = 1024 // live window: a delete removes the object inserted 1024 inserts (2048 writes) earlier
	defaultFlushEvery    = 4096 // quasii-serve's default -flush-every; the library depths fold pending updates in at the same cadence
	mixedFlushEvery      = 1024 // serve_mixed's -flush-every: at least three flushes inside the timed window
	mixedCheckpointEvery = 2048 // serve_mixed's -checkpoint-every: at least two checkpoints inside the timed window
	tailShare            = 0.10 // crack_stream reads are the last 10 % of the stream
	maxWarmPasses        = 6    // convergence must be reached within this many passes over the pool
	crossChecks          = 8    // pool queries audited against internal/scan per run
	auditSample          = 1024 // deleted objects re-probed after recovery (all live ones are)
)

// Shares of a round's measured time given to each phase. crack_stream's
// cold stream is fixed work and takes no share.
const (
	readShare  = 0.35
	batchShare = 0.35
	writeShare = 0.30
)

// scaleSmoke shrinks every size so that all four workloads run end to end
// in a few seconds; the numbers it prints mean nothing.
func scaleSmoke(w workloadSpec) workloadSpec {
	w.N /= 50
	w.Pool /= 16
	w.Rounds = 1
	return w
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
