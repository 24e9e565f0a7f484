// Command quasii-loadgen drives HTTP load against a running quasii-serve,
// optionally validating every response against a local scan oracle. It is
// the client half of the serving story: concurrent clients, the full
// workload-pattern roster of the adaptive-indexing literature, mixed
// read/write traffic, and well-behaved 429 backoff.
//
// Usage:
//
//	quasii-loadgen [-addr http://localhost:8080] [-clients 8] [-queries 10000]
//	               [-workload uniform|clustered|zipf|sequential]
//	               [-selectivity 1e-3] [-skew 1.2] [-query-seed 2]
//	               [-write-every 0] [-readers 0] [-writers 0] [-audit-visibility]
//	               [-oracle] [-check-metrics] [-n 200000] [-dataset uniform]
//	               [-seed 1] [-retries 100] [-wait 10s]
//
// With -oracle, the generator rebuilds the server's dataset locally (match
// -n, -dataset and -seed to the quasii-serve flags) and compares every
// response against a full scan; any mismatch makes the run exit non-zero.
// The oracle run also scrapes GET /metrics afterwards: the exposition must
// parse strictly, and the server-side request counts and latency
// histograms are cross-checked against the client-side measurements
// (server p50/p95/p99 print next to the client's). -check-metrics runs
// that scrape without the oracle.
// -write-every N mixes one insert→verify→delete cycle into every Nth query.
// -audit-visibility promotes the cycles' read-your-writes checks to a
// first-class acked-write audit: every acked insert must be observed by the
// same client's immediate re-read and every acked delete must stay gone;
// any violation (or an audit that never ran) fails the run. It defaults
// -write-every to 25 when no write traffic was requested.
// -readers/-writers select the mixed-workload mode: -readers R goroutines
// drain the query workload (overriding -clients) while -writers W dedicated
// goroutines run continuous insert→verify→delete cycles against the same
// server — the end-to-end measurement of the engine's concurrent read path
// under write contention.
//
// -wait D polls the target's /healthz for up to D before the run starts, so
// a script can restart a durable quasii-serve (which replays its WAL before
// listening) and immediately relaunch the generator — the kill-restart
// oracle validation flow of scripts/persistence-smoke.sh.
//
// -chaos "CMD ARGS..." switches to chaos mode: the generator launches the
// server itself from the given argv (whitespace-split, no shell quoting),
// then SIGKILLs and restarts it -chaos-kills times at -chaos-interval
// spacing while the load runs. Transport errors are retried like 429s —
// clients must ride out every restart window — and any error, mismatch or
// failed recovery makes the run exit non-zero. The command must point the
// server at a durable -data-dir, or the kills genuinely destroy state and
// the oracle reports it. Server counters reset across restarts, so the
// /metrics cross-check validates series presence and shape only.
//
// -failover-leader/-failover-follower "CMD ARGS..." switch to failover
// mode: the generator launches a leader and a replicating follower from
// the two command lines, watches the follower's /readyz gate traffic until
// it catches up, fans oracle-validated reads over both servers, pushes
// acknowledged writes at the leader, waits for the follower to report zero
// replication lag, SIGKILLs the leader mid-load, promotes the follower
// (POST /repl/promote on -follower-addr), and verifies every acknowledged
// write survived and post-promotion writes flow. Any lost write, missed
// readiness gate, silently-accepted replica write, error or mismatch makes
// the run exit non-zero — the zero-loss validation behind
// scripts/replication-smoke.sh. -failover-writes sets the acknowledged
// write count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	quasii "repro"
	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/workload"
)

// invocation is one resolved command line: the load to drive and the mode
// that drives it.
type invocation struct {
	cfg bench.LoadgenConfig
	// chaos and failover select those modes; both nil is a plain run.
	chaos    *bench.ChaosConfig
	failover *bench.FailoverConfig
	// scrape asks for the /metrics cross-check (-oracle or -check-metrics).
	scrape bool
	banner string
}

// resolve parses args on fs, validates the flags and resolves the mode. An
// error means the command line cannot run (the caller exits 2).
func resolve(fs *flag.FlagSet, args []string) (*invocation, error) {
	addr := fs.String("addr", "http://localhost:8080", "base URL of the quasii-serve target")
	clients := fs.Int("clients", 8, "concurrent client goroutines")
	queries := fs.Int("queries", 10000, "number of range queries to issue")
	workloadName := fs.String("workload", "uniform",
		"query workload: uniform, clustered, zipf or sequential")
	selectivity := fs.Float64("selectivity", 1e-3, "query volume as a fraction of the universe")
	skew := fs.Float64("skew", 1.2, "zipf workload skew")
	querySeed := fs.Int64("query-seed", 2, "workload RNG seed")
	writeEvery := fs.Int("write-every", 0,
		"mix an insert+delete cycle into every Nth query (0 = read-only)")
	readers := fs.Int("readers", 0,
		"mixed-workload mode: reader goroutines draining the query workload (0 = use -clients)")
	writers := fs.Int("writers", 0,
		"mixed-workload mode: dedicated writer goroutines running continuous insert+delete cycles")
	oracle := fs.Bool("oracle", false,
		"validate responses against a local scan oracle (requires matching -n/-dataset/-seed)")
	auditVisibility := fs.Bool("audit-visibility", false,
		"acked-write visibility audit: every acked insert must be seen by a same-client "+
			"re-read and every acked delete must stay gone; any violation fails the run "+
			"(enables write cycles every 25 queries unless -write-every/-writers say otherwise)")
	n := fs.Int("n", 200000, "server dataset size (for -oracle and -workload clustered)")
	datasetName := fs.String("dataset", "uniform", "server dataset generator: uniform or neuro")
	seed := fs.Int64("seed", 1, "server dataset RNG seed")
	checkMetrics := fs.Bool("check-metrics", false,
		"scrape and cross-check the server's /metrics after the run even without -oracle")
	retries := fs.Int("retries", 100, "max 429 retries per request")
	wait := fs.Duration("wait", 0,
		"poll the server's /healthz for up to this long before starting "+
			"(lets a script restart quasii-serve and the load generator back to back)")
	chaosCmd := fs.String("chaos", "",
		"chaos mode: launch the server from this command line (whitespace-split), "+
			"then SIGKILL and restart it mid-load; implies transport-error retries")
	chaosKills := fs.Int("chaos-kills", 3, "kill/restart cycles in -chaos mode")
	chaosInterval := fs.Duration("chaos-interval", 2*time.Second,
		"dwell between a recovered restart and the next kill in -chaos mode")
	failoverLeader := fs.String("failover-leader", "",
		"failover mode: launch the leader from this command line (whitespace-split)")
	failoverFollower := fs.String("failover-follower", "",
		"failover mode: launch the follower from this command line (whitespace-split)")
	followerAddr := fs.String("follower-addr", "http://localhost:8081",
		"failover mode: the follower's base URL")
	failoverWrites := fs.Int("failover-writes", 200,
		"failover mode: acknowledged writes pushed at the leader before the kill")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *datasetName != "uniform" && *datasetName != "neuro" {
		return nil, fmt.Errorf("unknown dataset %q (want uniform or neuro)", *datasetName)
	}
	if (*failoverLeader == "") != (*failoverFollower == "") {
		return nil, errors.New("failover mode needs both -failover-leader and -failover-follower")
	}

	// The dataset is only materialized when something needs it: the oracle,
	// or the clustered workload (whose cluster centers sit on the data).
	var data []quasii.Object
	loadData := func() []quasii.Object {
		switch {
		case data != nil:
		case *datasetName == "neuro":
			data = quasii.NeuroDataset(*n, *seed, quasii.NeuroConfig{})
		default:
			data = quasii.UniformDataset(*n, *seed)
		}
		return data
	}
	var wdata []quasii.Object
	if *workloadName == "clustered" {
		wdata = loadData()
	}
	boxes, err := workload.Named(*workloadName, quasii.Universe(), wdata, *queries, *selectivity, *skew, *querySeed)
	if err != nil {
		return nil, err
	}

	nClients := *clients
	if *readers > 0 {
		nClients = *readers
	}
	inv := &invocation{
		cfg: bench.LoadgenConfig{
			BaseURL:         *addr,
			Clients:         nClients,
			Queries:         boxes,
			WriteEvery:      *writeEvery,
			Writers:         *writers,
			AuditVisibility: *auditVisibility,
			MaxRetries:      *retries,
			WaitReady:       *wait,
		},
		scrape: *oracle || *checkMetrics,
		banner: fmt.Sprintf("quasii-loadgen: %d %s queries (sel %g) against %s, %d readers, %d writers, write-every %d, oracle %v",
			len(boxes), *workloadName, *selectivity, *addr, nClients, *writers, *writeEvery, *oracle),
	}
	if *auditVisibility && *writeEvery == 0 && *writers == 0 {
		// The audit needs acked writes to re-read; give it a write cycle
		// every 25th query when the caller asked for none.
		inv.cfg.WriteEvery = 25
	}
	if *oracle {
		sc := quasii.NewScan(loadData())
		inv.cfg.Oracle = func(q geom.Box) []int32 { return sc.Query(q, nil) }
	}
	switch {
	case *failoverLeader != "":
		inv.failover = &bench.FailoverConfig{
			LeaderCommand:   strings.Fields(*failoverLeader),
			FollowerCommand: strings.Fields(*failoverFollower),
			LeaderURL:       *addr,
			FollowerURL:     *followerAddr,
			Queries:         boxes,
			Oracle:          inv.cfg.Oracle,
			Clients:         nClients,
			AckWrites:       *failoverWrites,
			ServerOut:       os.Stderr,
		}
	case *chaosCmd != "":
		// Chaos mode owns the server process and crashes it mid-load, so
		// the clients must absorb every restart window.
		inv.cfg.RetryTransport = true
		if inv.cfg.WaitReady <= 0 {
			inv.cfg.WaitReady = 30 * time.Second
		}
		inv.chaos = &bench.ChaosConfig{
			Command:   strings.Fields(*chaosCmd),
			BaseURL:   *addr,
			Kills:     *chaosKills,
			Interval:  *chaosInterval,
			ServerOut: os.Stderr,
		}
	}
	return inv, nil
}

func main() {
	inv, err := resolve(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "quasii-loadgen: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(inv.banner)
	// The oracle run also validates the server's observability: scrape
	// /metrics, require it to parse strictly, and cross-check the
	// server-side request accounting against the client-side counters.
	// Chaos restarts reset the server's counters mid-run, so the traffic
	// cross-check is skipped there (series presence, shape, and the
	// failure-model gauges are still validated) — and the scrape runs
	// inside the chaos harness, while it still owns a live server.
	var res *bench.LoadgenResult
	var rep *bench.MetricsReport
	var scrapeErr error
	scrape := func(check *bench.LoadgenResult) {
		if inv.scrape {
			rep, scrapeErr = bench.ScrapeMetrics(nil, inv.cfg.BaseURL, check)
		}
	}
	failed := false
	if inv.failover != nil {
		fres, err := bench.RunFailover(*inv.failover)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quasii-loadgen: %v\n", err)
			failed = true
		}
		if fres != nil {
			bench.PrintFailover(os.Stdout, fres)
			// The whole point: nothing acknowledged may be lost, the
			// readiness gate and the replica's write fence must have been
			// observed working, and the promoted follower must take writes.
			if fres.LostWrites > 0 || !fres.ReadinessGated ||
				!fres.FollowerRejectedWrites || fres.PostPromoteWrites == 0 {
				failed = true
			}
			if fres.Load != nil && (fres.Load.Mismatches > 0 || fres.Load.Errors > 0) {
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
		return
	}
	if inv.chaos != nil {
		cres, err := bench.RunChaos(*inv.chaos, func() {
			res = bench.RunLoadgen(inv.cfg)
			scrape(nil)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "quasii-loadgen: %v\n", err)
			failed = true
		}
		if cres != nil {
			bench.PrintChaos(os.Stdout, cres)
			if cres.Restarts < cres.Kills {
				failed = true
			}
		}
	} else {
		res = bench.RunLoadgen(inv.cfg)
		scrape(res)
	}
	if res == nil {
		os.Exit(1)
	}
	bench.PrintLoadgen(os.Stdout, res)
	failed = failed || res.Mismatches > 0 || res.Errors > 0 || res.VisibilityViolations > 0
	if inv.cfg.AuditVisibility && res.AuditedWrites == 0 {
		fmt.Fprintln(os.Stderr, "quasii-loadgen: -audit-visibility ran but no acked write was audited")
		failed = true
	}
	if scrapeErr != nil {
		fmt.Fprintf(os.Stderr, "quasii-loadgen: %v\n", scrapeErr)
		failed = true
	}
	if rep != nil {
		bench.PrintMetricsReport(os.Stdout, rep)
		if len(rep.Problems) > 0 {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
