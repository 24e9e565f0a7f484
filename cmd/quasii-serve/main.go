// Command quasii-serve runs the HTTP/JSON query service over a sharded
// QUASII index: the paper's in-process adaptive index turned into a network
// server with request batching, admission control, live updates, metrics,
// (with -data-dir) durable persistence with warm restart, and (with
// -replicate-from) fault-tolerant replication to read replicas.
//
// Usage:
//
//	quasii-serve [-addr :8080] [-n 200000] [-dataset uniform|neuro] [-seed 1]
//	             [-shards P] [-workers W] [-batch-window 2ms] [-batch-limit 64]
//	             [-max-inflight 1024] [-exec-slots 0] [-flush-every 4096]
//	             [-data-dir DIR] [-fsync always|interval|never]
//	             [-fsync-interval 100ms] [-checkpoint-every 100000]
//	             [-retain 2] [-wal-retries 3] [-recover-every 5s]
//	             [-role leader|follower|standalone] [-replicate-from URL]
//	             [-max-lag 0] [-pprof :6060] [-trace-sample 64]
//	             [-slow-threshold 10ms] [-slowlog-size 128] [-heat-sample 16]
//	             [-log-level info] [-log-format text] [-dump-metrics]
//
// Without -data-dir the server builds the requested synthetic dataset (the
// same generators the paper's evaluation uses, so a quasii-loadgen started
// with matching -n/-dataset/-seed can validate every response against a
// local oracle) and serves it from memory only.
//
// With -data-dir the server is durable: on first start the synthetic
// dataset bootstraps the directory, on every later start the index is
// restored from the latest snapshot — all accumulated refinement included,
// so the warm restart skips the convergence cost — and the write-ahead log
// is replayed. /insert and /delete are logged before they are acknowledged
// (-fsync selects the cadence), POST /snapshot checkpoints on demand,
// -checkpoint-every N checkpoints automatically after N accepted updates,
// -retain K keeps the last K snapshot+WAL generations on disk (minimum 2,
// so replication streams always have a stable generation to read),
// -wal-retries bounds the transient-append retry budget before the store
// degrades to read-only, -recover-every sets the degraded store's disk
// re-probe cadence, and SIGTERM/SIGINT triggers a graceful shutdown: stop
// accepting requests, write a final snapshot, truncate the log, exit 0.
//
// Replication. A durable server is a replication leader by default: it
// serves GET /repl/snapshot (the latest checkpoint generation as a
// CRC-framed archive) and GET /repl/wal?from=N (raw WAL frames from global
// sequence N, long-polling at the tail); -role standalone keeps a durable
// server's state to itself. Start a read replica by pointing it at the
// leader:
//
//	quasii-serve -addr :8081 -data-dir /var/lib/quasii-replica \
//	             -replicate-from http://leader-host:8080
//
// The follower bootstraps from the leader's snapshot, replays it, then
// tails the WAL with bounded exponential backoff — it retries through
// leader restarts and network faults, resuming from its own durable
// position so no record is ever applied twice. Follower /insert and
// /delete answer 503 with an X-Quasii-Leader hint; /readyz answers 503
// until the follower has bootstrapped and is within -max-lag records of
// the leader (0 selects 1024, negative disables the lag gate); /stats and
// /metrics report the replication position (quasii_repl_lag_records,
// quasii_repl_lag_seconds). Failover: POST /repl/promote stops tailing,
// checkpoints the applied state and flips the follower writable — or
// restart the process with -role leader over the same -data-dir. A
// follower also serves /repl/* itself, so replicas can chain.
//
//	POST /query    {"min":[x,y,z],"max":[x,y,z]}             range query
//	GET  /query?min=x,y,z&max=x,y,z                          curl-friendly form
//	POST /batch    {"queries":[{...},...]}                   many queries, one fan-out
//	POST /knn      {"point":[x,y,z],"k":5}                   k nearest neighbors
//	POST /insert   {"objects":[{"id":7,"min":...,"max":...}]} live insert
//	POST /delete   {"id":7,"hint":{...}}                     live delete
//	POST /snapshot                                           checkpoint now
//	GET  /repl/snapshot                                      replication bootstrap stream
//	GET  /repl/wal?from=N&wait=ms                            replication WAL tail
//	POST /repl/promote                                       promote this follower
//	GET  /stats                                              metrics and engine state
//	GET  /metrics                                            Prometheus text exposition
//	GET  /debug/slowlog                                      sampled slow-query traces
//	GET  /debug/index                                        hierarchy snapshot (?maxdepth=N)
//	GET  /debug/heat                                         tile×depth heat grid
//	GET  /healthz                                            liveness
//	GET  /readyz                                             readiness (503 while loading or lagging)
//
// The listener binds before the dataset is built, restored or replicated:
// /healthz answers 200 immediately (the process is alive) while /readyz and
// every other endpoint answer 503 until the index is loaded — so an
// orchestrator probing /readyz never routes traffic into a warm restart's
// replay window or a follower's bootstrap.
//
// /metrics exposes the full quasii_* registry — per-endpoint latency
// histograms, the shard engine's shared-vs-cracking path split, the
// convergence counters (slices refined, shared-path ratio), with -data-dir
// the WAL/checkpoint series, and the quasii_repl_* replication series.
// -trace-sample N samples one request in N for per-stage tracing; sampled
// requests slower than -slow-threshold land in the /debug/slowlog ring.
// -heat-sample N records per-slice access heat for one query in N (negative
// disables), feeding /debug/index and /debug/heat. /metrics and the /debug
// endpoints answer outside admission control, so they keep working while
// the server sheds load with 429s.
//
// Logs are structured (log/slog) on stderr: -log-format selects text or
// json, -log-level selects debug, info, warn or error. stdout stays clean —
// -dump-metrics prints the full metrics exposition for the configured stack
// to stdout and exits, which is how scripts/metrics-lint.sh verifies that
// every registered series carries HELP and TYPE lines.
//
// Overload answers 429 (with Retry-After) once -max-inflight requests are
// in flight; see the README's Serving and Durability sections for the knobs.
//
// With -pprof the standard net/http/pprof handlers are served on a separate
// listener, so production-shaped load (driven by quasii-loadgen) can be
// profiled live without rebuilding:
//
//	quasii-serve -pprof :6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	quasii "repro"
)

// pprofMux builds a dedicated mux carrying only the net/http/pprof
// handlers. Registering them explicitly (instead of blank-importing the
// package) keeps them off http.DefaultServeMux, so nothing in the process —
// not even a library that serves DefaultServeMux by accident — exposes the
// profiling endpoints on the query port.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// newLogger builds the process logger on stderr from the -log-level and
// -log-format flags (stdout is reserved for -dump-metrics output).
func newLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}

// resolveRole resolves the replication role from -role, -replicate-from,
// -data-dir and -dump-metrics. An explicit -role wins; otherwise
// -replicate-from selects follower, -data-dir selects leader (a durable
// server can always ship its WAL) and a memory-only server stands alone.
// A combination that cannot run is an error.
func resolveRole(role, replicateFrom, dataDir string, dumpMetrics bool) (string, error) {
	if role == "" {
		switch {
		case replicateFrom != "":
			role = "follower"
		case dataDir != "":
			role = "leader"
		default:
			role = "standalone"
		}
	}
	switch role {
	case "follower":
		if replicateFrom == "" {
			return "", errors.New("-role follower requires -replicate-from")
		}
		if dataDir == "" {
			return "", errors.New("-role follower requires -data-dir (the follower keeps its own durable store)")
		}
		if dumpMetrics {
			return "", errors.New("-dump-metrics cannot run in follower role (it would need a live leader); use leader or standalone")
		}
	case "leader":
		if dataDir == "" {
			return "", errors.New("-role leader requires -data-dir (replication ships the snapshot and WAL)")
		}
	case "standalone":
		if replicateFrom != "" {
			return "", errors.New("-replicate-from conflicts with -role standalone")
		}
	default:
		return "", fmt.Errorf("unknown -role %q (want leader, follower or standalone)", role)
	}
	return role, nil
}

// bootHandler answers while the index is still building, restoring or
// replicating: liveness says the process is up, everything else says come
// back later. The 503s carry Retry-After so impatient clients back off
// politely.
func bootHandler(phase string) http.Handler {
	status := func(code int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if code != http.StatusOK {
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(code)
			fmt.Fprintf(w, "{\"status\":\"starting\",\"phase\":%q}\n", phase)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", status(http.StatusOK))
	mux.HandleFunc("/", status(http.StatusServiceUnavailable))
	return mux
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	n := flag.Int("n", 200000, "synthetic dataset size")
	datasetName := flag.String("dataset", "uniform", "dataset generator: uniform or neuro")
	seed := flag.Int64("seed", 1, "dataset RNG seed")
	shards := flag.Int("shards", 0, "spatial shard count (0 = GOMAXPROCS)")
	workers := flag.Int("workers", 0, "shard worker-pool bound (0 = auto)")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond,
		"coalescing window for singleton /query requests (negative disables)")
	batchLimit := flag.Int("batch-limit", 64, "max queries coalesced into one batch")
	maxInFlight := flag.Int("max-inflight", 1024, "admission budget; excess requests get 429")
	execSlots := flag.Int("exec-slots", 0, "concurrent index executions (0 = GOMAXPROCS)")
	flushEvery := flag.Int("flush-every", 4096, "fold pending updates in after this many (0 = never)")
	dataDir := flag.String("data-dir", "",
		"durable data directory (snapshots + write-ahead log); empty serves from memory only")
	fsync := flag.String("fsync", "always",
		"WAL fsync policy with -data-dir: always, interval or never")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond,
		"background WAL sync cadence with -fsync interval")
	checkpointEvery := flag.Int("checkpoint-every", 100000,
		"write a snapshot and truncate the WAL after this many accepted updates (0 = manual only)")
	retain := flag.Int("retain", 2,
		"snapshot+WAL generations kept on disk after a checkpoint (minimum 2)")
	walRetries := flag.Int("wal-retries", 3,
		"transient WAL append retries before the store degrades to read-only (negative disables)")
	recoverEvery := flag.Duration("recover-every", 5*time.Second,
		"cadence at which a degraded store re-probes the disk for recovery")
	role := flag.String("role", "",
		"replication role: leader, follower or standalone (default: follower with -replicate-from, else leader with -data-dir, else standalone)")
	replicateFrom := flag.String("replicate-from", "",
		"leader base URL to replicate from (follower mode; requires -data-dir)")
	maxLag := flag.Int64("max-lag", 0,
		"follower /readyz catch-up bound in WAL records (0 = default 1024, negative disables)")
	pprofAddr := flag.String("pprof", "",
		"serve net/http/pprof on this address (e.g. :6060); empty disables")
	traceSample := flag.Int("trace-sample", 64,
		"sample one request in N for per-stage tracing (1 = all, 0 disables)")
	slowThreshold := flag.Duration("slow-threshold", 10*time.Millisecond,
		"sampled requests at least this slow enter GET /debug/slowlog (0 = keep all sampled)")
	slowlogSize := flag.Int("slowlog-size", 128, "slow-query ring capacity")
	heatSample := flag.Int("heat-sample", 0,
		"record per-slice access heat for one query in N (0 = default 16, negative disables)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	dumpMetrics := flag.Bool("dump-metrics", false,
		"build the configured stack, print its full /metrics exposition to stdout, and exit")
	flag.Parse()

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	resolvedRole, err := resolveRole(*role, *replicateFrom, *dataDir, *dumpMetrics)
	if err != nil {
		logger.Error(err.Error())
		os.Exit(2)
	}

	buildData := func() []quasii.Object {
		switch *datasetName {
		case "uniform":
			return quasii.UniformDataset(*n, *seed)
		case "neuro":
			return quasii.NeuroDataset(*n, *seed, quasii.NeuroConfig{})
		}
		logger.Error("unknown dataset", "dataset", *datasetName, "want", "uniform or neuro")
		os.Exit(2)
		return nil
	}

	// Bind the listener before the long part (dataset build, snapshot
	// restore, WAL replay, replication bootstrap): the boot handler answers
	// /healthz 200 and everything else 503 until the real service swaps in,
	// so orchestrators see a live-but-not-ready process instead of
	// connection refused.
	phase := "building"
	if *dataDir != "" {
		phase = "restoring"
	}
	if resolvedRole == "follower" {
		phase = "replicating"
	}
	var handler atomic.Value // http.Handler: bootHandler, then Server.Handler
	handler.Store(bootHandler(phase))
	httpServer := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handler.Load().(http.Handler).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	serveErr := make(chan error, 1)
	if !*dumpMetrics {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			logger.Error("listen failed", "addr", *addr, "err", err)
			os.Exit(1)
		}
		go func() { serveErr <- httpServer.Serve(ln) }()
		logger.Info("listening", "addr", ln.Addr().String(), "phase", phase, "role", resolvedRole)
	}

	shardCfg := quasii.ShardedConfig{Shards: *shards, Workers: *workers}
	shardCfg.SubConfig.HeatSampleEvery = *heatSample
	storeCfg := quasii.StoreConfig{
		Shard:             shardCfg,
		Fsync:             quasii.FsyncPolicy(*fsync),
		FsyncEvery:        *fsyncInterval,
		CheckpointEvery:   *checkpointEvery,
		AppendRetries:     *walRetries,
		RecoverEvery:      *recoverEvery,
		RetainGenerations: *retain,
		Logger:            logger,
	}
	if *dataDir != "" {
		switch storeCfg.Fsync {
		case quasii.FsyncAlways, quasii.FsyncInterval, quasii.FsyncNever:
		default:
			logger.Error("unknown -fsync policy", "fsync", *fsync, "want", "always, interval or never")
			os.Exit(2)
		}
	}

	// One registry serves the whole process across every role and every
	// state swap: the server instruments itself and the engine on it, the
	// durable store's WAL/checkpoint series join it, and the full
	// quasii_repl_* family is registered up front regardless of role so
	// dashboards and the metrics lint see one stable name set.
	reg := quasii.NewMetricsRegistry()
	replMetrics := quasii.NewReplMetrics(reg)

	serverCfg := quasii.ServerConfig{
		BatchWindow:      *batchWindow,
		BatchLimit:       *batchLimit,
		MaxInFlight:      *maxInFlight,
		ExecSlots:        *execSlots,
		FlushEvery:       *flushEvery,
		TraceSampleEvery: *traceSample,
		SlowThreshold:    *slowThreshold,
		SlowlogSize:      *slowlogSize,
		Telemetry:        reg,
		Logger:           logger,
	}

	// buildServer wires the service for the current state. In follower mode
	// it runs again after a re-bootstrap replaces the store (re-registration
	// on the shared registry returns the existing series, so /metrics stays
	// continuous). Leaders and followers also carry the leader endpoints so
	// replicas can bootstrap from them — and chain through a follower; a
	// standalone server keeps its store to itself.
	var curServer atomic.Pointer[quasii.Server]
	var curFollower atomic.Pointer[quasii.ReplFollower]
	buildServer := func(ix *quasii.Sharded, store *quasii.Store) *quasii.Server {
		cfg := serverCfg
		if store != nil {
			cfg.Durability = store
			if resolvedRole != "standalone" {
				cfg.ReplSource = quasii.NewReplLeader(store, replMetrics, logger)
			}
		}
		if f := curFollower.Load(); f != nil {
			cfg.ReplFollower = f
			cfg.MaxLagRecords = *maxLag
		}
		s := quasii.NewServer(ix, cfg)
		if store != nil {
			store.Instrument(reg)
		}
		curServer.Store(s)
		return s
	}

	var ix *quasii.Sharded
	var store *quasii.Store
	t0 := time.Now()
	switch {
	case resolvedRole == "follower":
		// SIGTERM/SIGINT during the bootstrap fetch aborts cleanly; the
		// follower otherwise retries with backoff until the leader appears,
		// so the two sides can be started in either order.
		bootCtx, stopSig := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
		fol, err := quasii.OpenReplFollower(bootCtx, quasii.ReplFollowerConfig{
			LeaderURL: strings.TrimRight(*replicateFrom, "/"),
			Dir:       *dataDir,
			Store:     storeCfg,
			Logger:    logger,
			Metrics:   replMetrics,
			OnStateSwap: func(st *quasii.Store) {
				// The leader could no longer serve our resume point and the
				// follower re-bootstrapped onto a fresh store: re-wire the
				// service onto it and swap the handler atomically.
				s := buildServer(st.Index(), st)
				handler.Store(s.Handler())
				logger.Info("service re-wired onto re-bootstrapped state",
					"objects", st.Index().Len())
			},
		})
		stopSig()
		if err != nil {
			logger.Error("opening follower failed", "leader", *replicateFrom, "err", err)
			os.Exit(1)
		}
		curFollower.Store(fol)
		store = fol.Store()
		ix = store.Index()
	case *dataDir != "":
		cfg := storeCfg
		cfg.Bootstrap = buildData
		var err error
		store, err = quasii.OpenStore(*dataDir, cfg)
		if err != nil {
			logger.Error("opening data dir failed", "dir", *dataDir, "err", err)
			os.Exit(1)
		}
		ix = store.Index()
	default:
		data := buildData()
		ix = quasii.NewSharded(data, shardCfg)
		built := ix.BuildTimes()
		logger.Info("index built",
			"objects", len(data), "dataset", *datasetName, "shards", ix.NumShards(),
			"elapsed_ms", time.Since(t0).Milliseconds(),
			"partition_ms", built.Partition.Milliseconds(), "lanes_ms", built.Lanes.Milliseconds(),
			"gomaxprocs", runtime.GOMAXPROCS(0))
	}

	if *pprofAddr != "" {
		// Profiling runs on its own listener and its own mux, so profile
		// scrapes bypass the query service's admission control and cannot be
		// 429'd away under the very load one wants to profile.
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			err := http.ListenAndServe(*pprofAddr, pprofMux())
			logger.Error("pprof server stopped", "err", err)
		}()
	}

	s := buildServer(ix, store)

	if *dumpMetrics {
		if err := s.Registry().WriteText(os.Stdout); err != nil {
			logger.Error("writing metrics dump failed", "err", err)
			os.Exit(1)
		}
		if store != nil {
			if err := store.Close(); err != nil {
				logger.Error("closing store after dump failed", "err", err)
				os.Exit(1)
			}
		}
		return
	}

	// The index is loaded: swap the real service in. Its /readyz answers
	// from here on (Server starts ready; a follower's /readyz still answers
	// 503 until it is within -max-lag records of the leader).
	handler.Store(s.Handler())
	logger.Info("serving",
		"addr", *addr, "role", resolvedRole, "objects", ix.Len(), "shards", ix.NumShards(),
		"batch_window", batchWindow.String(), "batch_limit", *batchLimit,
		"max_inflight", *maxInFlight, "flush_every", *flushEvery,
		"elapsed_ms", time.Since(t0).Milliseconds())

	// Graceful shutdown: SIGTERM/SIGINT flips readiness off (load balancers
	// stop routing), stops accepting requests, drains in-flight ones, then
	// checkpoints so the next start is a warm restart with no WAL replay. A
	// follower stops tailing first; its store close checkpoints the applied
	// state, so its restart resumes from local disk.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-sigCh
		logger.Info("shutting down", "signal", sig.String())
		curServer.Load().SetReady(false)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpServer.Shutdown(ctx); err != nil {
			logger.Error("shutdown failed", "err", err)
		}
		if f := curFollower.Load(); f != nil {
			if err := f.Close(); err != nil {
				logger.Error("closing follower failed", "err", err)
				os.Exit(1)
			}
			logger.Info("follower state closed")
		} else if store != nil {
			if err := store.Close(); err != nil {
				logger.Error("final snapshot failed", "err", err)
				os.Exit(1)
			}
			logger.Info("final snapshot written")
		}
	}()

	err = <-serveErr
	if err == http.ErrServerClosed {
		<-done // wait for the final snapshot
		return
	}
	logger.Error("server stopped", "err", err)
	os.Exit(1)
}
