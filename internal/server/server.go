// Package server is the network serving subsystem: an HTTP/JSON query
// service over the sharded parallel engine (internal/shard). It is the
// layer that turns the adaptive-indexing library into a system handling
// concurrent traffic:
//
//   - /query     one range query; singletons arriving within the batching
//     window are coalesced into one QueryBatch fan-out (group commit for
//     reads)
//   - /batch     many range queries in one request, scheduled across the
//     shard worker pool
//   - /knn       k-nearest-neighbor search
//   - /insert    live inserts, routed to the shard owning each object's tile
//   - /delete    live deletes (tombstoned immediately, compacted on flush)
//   - /stats     per-endpoint latency/QPS metrics, admission and batching
//     counters, aggregated shard/QUASII statistics
//   - /healthz   liveness
//   - /readyz    readiness (503 until restored state is loaded)
//   - /snapshot  admin checkpoint trigger (requires Config.Durability):
//     writes a fresh snapshot, truncates the write-ahead log
//
// Observability endpoints stay outside admission control so they answer
// while the server sheds load: /metrics (Prometheus text), /debug/slowlog
// (sampled slow traces), /debug/index (hierarchy snapshot with per-slice
// heat) and /debug/heat (tile×depth heat grid); see debug.go.
//
// With Config.Durability set (see internal/durable), /insert and /delete
// are appended to a write-ahead log before they are applied or
// acknowledged, so a restarted server recovers every acknowledged update.
//
// Overload never grows goroutines without bound: a fixed admission budget
// (Config.MaxInFlight) turns excess requests into immediate 429s, and a
// small execution-slot semaphore keeps the index work itself at hardware
// parallelism. See admission.go and batcher.go.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/geom"
	"repro/internal/ioerr"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// Config tunes the serving layer. The zero value is production-usable:
// a 2ms batching window, 1024 admitted requests, GOMAXPROCS execution
// slots, and no automatic flushing.
type Config struct {
	// BatchWindow is how long the first singleton /query of a batch waits
	// for companions before executing. 0 selects the 2ms default; negative
	// disables coalescing (each query executes immediately).
	BatchWindow time.Duration
	// BatchLimit caps the queries coalesced into one batch; a full batch
	// fires before its window ends. 0 selects 64.
	BatchLimit int
	// MaxInFlight is the admission budget: the maximum number of requests
	// admitted concurrently (parked in a batching window, waiting for an
	// execution slot, or executing). Requests beyond it receive 429
	// immediately. 0 selects 1024.
	MaxInFlight int
	// ExecSlots bounds the requests concurrently executing index work
	// (batch fan-outs, kNN, updates). 0 selects GOMAXPROCS.
	ExecSlots int
	// FlushEvery folds pending updates into the shards' indexed arrays
	// after every N accepted update objects, bounding the O(pending) scan
	// cost each query pays. 0 disables automatic flushing (pending objects
	// are still visible — just served from the append buffers).
	FlushEvery int
	// RequestTimeout bounds the index work of one request: the handler's
	// context (already cancelled when the client disconnects) additionally
	// expires after this long, and the shard fan-out observes it between
	// probes. Expired requests answer 503 with Retry-After. 0 disables the
	// deadline; client-disconnect cancellation is always on.
	RequestTimeout time.Duration
	// Durability, when non-nil, routes /insert and /delete through a
	// write-ahead log before they reach the index and enables the admin
	// POST /snapshot endpoint. Nil keeps the in-memory-only behaviour;
	// /snapshot then answers 501. When it is an internal/durable.Store,
	// /stats reports its state and /readyz its recovery provenance and
	// degraded mode.
	Durability Durability
	// Telemetry is the metrics registry GET /metrics renders. The server
	// instruments itself and the engine on it; callers that also own the
	// durability store should instrument it on the same registry. Nil makes
	// the server create a private registry, so /metrics always answers.
	Telemetry *telemetry.Registry
	// TraceSampleEvery samples one request in every N for per-stage tracing
	// (admission wait, coalescing window, shard fan-out, shared/crack split,
	// response encode); sampled traces above SlowThreshold land in the
	// slow-query ring served at GET /debug/slowlog. 1 traces everything,
	// 0 disables tracing.
	TraceSampleEvery int
	// SlowThreshold is the minimum sampled-request latency that enters the
	// slowlog. 0 keeps every sampled trace (the ring is bounded regardless).
	SlowThreshold time.Duration
	// SlowlogSize is the slow-query ring capacity. 0 selects 128.
	SlowlogSize int
	// Logger receives the server's structured log records (request
	// failures, background flush errors, lifecycle events). Nil discards
	// them — the library stays silent unless a caller opts in, and the
	// handlers never pay for record formatting.
	Logger *slog.Logger
	// ReplSource, when non-nil, mounts the replication-leader endpoints
	// (GET /repl/snapshot, GET /repl/wal) outside admission control —
	// replica catch-up must work while the server sheds query load.
	ReplSource *repl.Leader
	// ReplFollower, when non-nil, puts the server in follower mode: writes
	// answer 503 with a leader hint until the follower is promoted
	// (POST /repl/promote), /readyz gates on replication lag, and /stats,
	// /healthz report the replication role.
	ReplFollower *repl.Follower
	// MaxLagRecords is the /readyz catch-up bound in follower mode: the
	// probe answers 503 while the follower is more than this many records
	// behind the leader. 0 selects 1024; negative disables lag gating
	// (bootstrap completion still gates).
	MaxLagRecords int64
}

// Durability is the write hook behind the serving layer: updates that must
// survive a restart are routed through it (logged before they are
// acknowledged), and Checkpoint writes a fresh snapshot, returning its
// sequence number. internal/durable.Store is the implementation; a wrapper
// that forwards these three methods (a tracing shim, say) serves writes the
// same way but leaves the store's state off /stats and /readyz.
type Durability interface {
	Insert(objs ...geom.Object) error
	Delete(id int32, hint geom.Box) (bool, error)
	Checkpoint() (uint64, error)
}

// Request limits. A body over maxBodyBytes, a /batch of more than maxBatch
// queries, an /insert of more than maxBatch objects and a /knn k above maxK
// answer 400.
const (
	maxBodyBytes = 8 << 20
	maxBatch     = 4096
	maxK         = 4096
)

func (cfg Config) withDefaults() Config {
	if cfg.BatchWindow == 0 {
		cfg.BatchWindow = 2 * time.Millisecond
	}
	if cfg.BatchWindow < 0 {
		cfg.BatchWindow = 0 // batcher treats 0 as "execute immediately"
	}
	if cfg.BatchLimit <= 0 {
		cfg.BatchLimit = 64
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 1024
	}
	if cfg.ExecSlots <= 0 {
		cfg.ExecSlots = runtime.GOMAXPROCS(0)
	}
	return cfg
}

// Server is the HTTP query service. Create it with New, mount Handler into
// any http.Server (or httptest.Server), or call ListenAndServe.
type Server struct {
	ix *shard.Index
	// upd is where /insert and /delete land: Config.Durability when set
	// (logged before acknowledged), the engine itself otherwise.
	upd interface {
		Insert(objs ...geom.Object) error
		Delete(id int32, hint geom.Box) (bool, error)
	}
	// store is Config.Durability when that is the durable store itself: the
	// source of the /stats durability section and the /readyz recovery and
	// degraded reports. Nil otherwise.
	store   *durable.Store
	cfg     Config
	adm     *admission
	bat     *batcher
	met     map[string]endpointSeries // per-endpoint /metrics series, read back by /stats
	mux     *http.ServeMux
	start   time.Time
	updates atomic.Int64 // accepted update objects since the last auto-flush
	pending atomic.Int64 // cheap estimate of unfolded inserts (see /insert)

	reg    *telemetry.Registry // never nil after New
	tracer *telemetry.Tracer   // never nil after New; samples per Config
	log    *slog.Logger        // never nil after New; discards by default

	// mCancelled counts requests whose context ended (client disconnect or
	// RequestTimeout) before their index work completed.
	mCancelled *telemetry.Counter

	// ready gates /readyz. New sets it true — an in-process server over an
	// already-built index is ready the moment it exists — and process
	// embeddings that restore state after binding the listener (quasii-serve
	// warm restart) flip it through SetReady.
	ready atomic.Bool
}

// New wires a server over the given sharded index.
func New(ix *shard.Index, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{ix: ix, upd: ix, cfg: cfg, start: time.Now()}
	if cfg.Durability != nil {
		s.upd = cfg.Durability
		s.store, _ = cfg.Durability.(*durable.Store)
	}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	s.ready.Store(true)
	s.reg = cfg.Telemetry
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	s.tracer = telemetry.NewTracer(telemetry.TraceConfig{
		SampleEvery:   cfg.TraceSampleEvery,
		SlowThreshold: cfg.SlowThreshold,
		LogSize:       cfg.SlowlogSize,
	})
	s.tracer.Instrument(s.reg)
	ix.Instrument(s.reg)
	s.adm = newAdmission(cfg.MaxInFlight, cfg.ExecSlots)
	s.bat = newBatcher(ix, s.adm, cfg.BatchWindow, cfg.BatchLimit)
	s.instrument()
	s.met = make(map[string]endpointSeries)
	s.mux = http.NewServeMux()
	s.route("/query", true, []string{http.MethodPost, http.MethodGet}, s.handleQuery)
	s.route("/batch", true, []string{http.MethodPost}, s.handleBatch)
	s.route("/knn", true, []string{http.MethodPost}, s.handleKNN)
	s.route("/insert", true, []string{http.MethodPost}, s.handleInsert)
	s.route("/delete", true, []string{http.MethodPost}, s.handleDelete)
	// /stats read-locks every shard (it rides with the shared read path on
	// a converged engine, but still queues behind cracking writers), so it
	// goes through admission like any other request; /healthz stays outside
	// admission but is lock-free, so a busy-but-healthy server always
	// answers its liveness probe.
	s.route("/stats", true, []string{http.MethodGet}, s.handleStats)
	s.route("/healthz", false, []string{http.MethodGet}, s.handleHealthz)
	// /readyz is the readiness probe: like /healthz it bypasses admission,
	// but it answers 503 until the embedding process declares its state
	// loaded (SetReady) — a warm-restarting server is alive long before it
	// is safe to route traffic to.
	s.route("/readyz", false, []string{http.MethodGet}, s.handleReadyz)
	// /snapshot writes every shard under its read lock, so it rides with
	// query traffic but must still hold an admission slot like any other
	// index-touching request.
	s.route("/snapshot", true, []string{http.MethodPost}, s.handleSnapshot)
	// /metrics and /debug/slowlog stay outside admission: an overloaded
	// server shedding load with 429s is exactly the moment observability
	// must keep answering. The scrape's shard walk rides the read path.
	s.route("/metrics", false, []string{http.MethodGet}, s.handleMetrics)
	s.route("/debug/slowlog", false, []string{http.MethodGet}, s.handleSlowlog)
	// The introspection endpoints (debug.go) join them outside admission;
	// their shard walk rides the read path like a /metrics scrape.
	s.route("/debug/index", false, []string{http.MethodGet}, s.handleDebugIndex)
	s.route("/debug/heat", false, []string{http.MethodGet}, s.handleDebugHeat)
	// Replication stays outside admission: a follower catching up (or a
	// long-polling tail) must not compete with — or be shed alongside —
	// query traffic, and /repl/promote is the failover control plane,
	// needed most exactly when the cluster is in trouble.
	if cfg.ReplSource != nil {
		s.route(repl.PathSnapshot, false, []string{http.MethodGet}, cfg.ReplSource.ServeSnapshot)
		s.route(repl.PathWAL, false, []string{http.MethodGet}, cfg.ReplSource.ServeWAL)
	}
	if cfg.ReplFollower != nil {
		s.route(repl.PathPromote, false, []string{http.MethodPost}, s.handlePromote)
	}
	return s
}

// role names the server's replication role: "follower" until a configured
// follower is promoted ("leader" afterwards), "leader" when it serves
// replication without being one, "standalone" otherwise.
func (s *Server) role() string {
	if f := s.cfg.ReplFollower; f != nil {
		if f.Writable() {
			return "leader"
		}
		return "follower"
	}
	if s.cfg.ReplSource != nil {
		return "leader"
	}
	return "standalone"
}

// handlePromote flips a follower writable (POST /repl/promote): replication
// tailing stops, the applied state is checkpointed to a fresh generation,
// and writes start answering. Idempotent.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	seq, err := s.cfg.ReplFollower.Promote()
	if err != nil {
		s.log.Error("promotion failed", "err", err)
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
		return
	}
	s.log.Info("follower promoted via /repl/promote", "snapshot_seq", seq)
	writeJSON(w, http.StatusOK, PromoteResponse{Seq: seq, Role: s.role()})
}

// followerRejectsWrites answers a write reaching an unpromoted follower:
// 503 + Retry-After (the role can change at any moment via promotion) and
// the leader's URL so a smart client can redirect itself.
func (s *Server) followerRejectsWrites(w http.ResponseWriter) bool {
	f := s.cfg.ReplFollower
	if f == nil || f.Writable() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	w.Header().Set("X-Quasii-Leader", f.LeaderURL())
	writeJSON(w, http.StatusServiceUnavailable,
		ErrorResponse{Error: "read-only follower: write to the leader at " + f.LeaderURL()})
	return true
}

// SetReady flips the /readyz readiness state. Embedding processes call
// SetReady(false) before long state loads (snapshot restore, WAL replay) and
// SetReady(true) once traffic is safe; New starts servers ready.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Registry returns the server's metrics registry (the one /metrics
// renders) so callers can instrument adjacent subsystems — the durable
// store, custom collectors — onto the same scrape.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// instrument registers the serving-layer metrics that are not per-endpoint
// (those attach in route).
func (s *Server) instrument() {
	s.reg.GaugeFunc("quasii_http_in_flight_requests",
		"Requests holding an admission slot right now.",
		func() float64 { return float64(s.adm.inflight.Load()) })
	s.reg.CounterFunc("quasii_http_rejected_total",
		"Requests rejected with 429 at admission.",
		func() float64 { return float64(s.adm.rejected.Load()) })
	s.reg.CounterFunc("quasii_server_batches_total",
		"Coalesced batches executed (a lone query counts as a batch of one).",
		func() float64 { return float64(s.bat.batches.Load()) })
	s.reg.CounterFunc("quasii_server_batched_queries_total",
		"Queries answered through the coalescing path.",
		func() float64 { return float64(s.bat.queries.Load()) })
	s.bat.mOccupancy = s.reg.Histogram("quasii_server_batch_occupancy_queries",
		"Queries per executed coalesced batch.", telemetry.SizeBuckets)
	s.reg.GaugeFunc("quasii_server_uptime_seconds",
		"Seconds since the server was created.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.mCancelled = s.reg.Counter("quasii_http_cancelled_total",
		"Requests abandoned mid-flight: client disconnected or the per-request deadline expired.")
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteText(w)
}

// handleSlowlog renders the slow-query ring, newest first.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	entries := s.tracer.Slowlog()
	if entries == nil {
		entries = []telemetry.TraceEntry{}
	}
	writeJSON(w, http.StatusOK, SlowlogResponse{Traces: entries})
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe runs the service on addr until the listener fails.
func (s *Server) ListenAndServe(addr string) error {
	return s.httpServer(addr).ListenAndServe()
}

// Serve runs the service on an existing listener (useful for :0 ports).
func (s *Server) Serve(l net.Listener) error {
	return s.httpServer(l.Addr().String()).Serve(l)
}

func (s *Server) httpServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
}

// statusWriter records the response status so the metrics wrapper can count
// errors.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// endpointSeries is one endpoint's registry series: what /metrics renders
// and what /stats summarises, so the two views cannot disagree.
type endpointSeries struct {
	errors, rejected *telemetry.Counter
	duration         *telemetry.Histogram
}

// stats summarises the series for /stats: handled requests (rejects
// excluded), their mean, and cumulative histogram-estimated percentiles;
// uptime turns the count into a rate.
func (e endpointSeries) stats(uptime time.Duration) EndpointStats {
	s := EndpointStats{Count: e.duration.Count(), Errors: e.errors.Value(), Rejected: e.rejected.Value()}
	if uptime > 0 {
		s.RatePerSec = float64(s.Count) / uptime.Seconds()
	}
	if s.Count > 0 {
		s.MeanMicros = int64(e.duration.Sum() / float64(s.Count) * 1e6)
	}
	micros := func(q float64) int64 {
		v, _ := e.duration.Quantile(q)
		return int64(v * 1e6)
	}
	s.P50Micros, s.P95Micros, s.P99Micros = micros(0.50), micros(0.95), micros(0.99)
	return s
}

// route registers one endpoint behind method filtering, optional admission
// control, and its request/error/reject/latency series.
func (s *Server) route(path string, admit bool, methods []string, h http.HandlerFunc) {
	name := strings.TrimPrefix(path, "/")
	lbl := telemetry.L("endpoint", name)
	mReq := s.reg.Counter("quasii_http_requests_total",
		"Requests received, by endpoint (method-filtered; includes rejects).", lbl)
	mErr := s.reg.Counter("quasii_http_errors_total",
		"Requests answered with a 4xx/5xx status, by endpoint.", lbl)
	mRej := s.reg.Counter("quasii_http_rejected_endpoint_total",
		"Requests rejected with 429 at admission, by endpoint.", lbl)
	mDur := s.reg.Histogram("quasii_http_request_duration_seconds",
		"Wall time of handled requests (admission rejects excluded), by endpoint.",
		telemetry.DurationBuckets, lbl)
	s.met[name] = endpointSeries{errors: mErr, rejected: mRej, duration: mDur}
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		allowed := false
		for _, meth := range methods {
			if r.Method == meth {
				allowed = true
				break
			}
		}
		if !allowed {
			writeJSON(w, http.StatusMethodNotAllowed,
				ErrorResponse{Error: fmt.Sprintf("method %s not allowed on %s", r.Method, path)})
			return
		}
		mReq.Inc()
		if admit {
			if !s.adm.admit() {
				mRej.Inc()
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusTooManyRequests,
					ErrorResponse{Error: "server at capacity, retry later"})
				return
			}
			defer s.adm.done()
		}
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		d := time.Since(t0)
		mDur.ObserveDuration(d)
		if sw.status >= 400 {
			mErr.Inc()
			// 5xx means the server failed the request, which an operator
			// needs to see; 4xx is the client's problem and stays at debug
			// so a misbehaving client cannot flood the log at default level.
			lvl := slog.LevelDebug
			if sw.status >= 500 {
				lvl = slog.LevelWarn
			}
			s.log.Log(r.Context(), lvl, "request failed",
				"endpoint", name, "method", r.Method, "status", sw.status,
				"duration_ms", float64(d)/float64(time.Millisecond))
		}
	})
}

// encBufPool recycles the JSON encode buffers so responses do not allocate
// a fresh buffer per request; buffers that ballooned past the reuse ceiling
// are dropped instead of pinning memory.
var encBufPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

const maxEncBufCap = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	writeJSONSized(w, status, v, 0)
}

// writeJSONSized encodes v into a pooled buffer — grown up front to
// sizeHint bytes when the caller can predict the response size from its
// result counts — and writes it out in one shot with an explicit
// Content-Length.
func writeJSONSized(w http.ResponseWriter, status int, v interface{}, sizeHint int) {
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if sizeHint > 0 {
		buf.Grow(sizeHint)
	}
	_ = json.NewEncoder(buf).Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxEncBufCap {
		encBufPool.Put(buf)
	}
}

func badRequest(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
}

// decodeJSON reads the (size-capped) body into v.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	return json.NewDecoder(r.Body).Decode(v)
}

// handleQuery answers one range query, coalescing concurrent singletons
// into QueryBatch fan-outs. GET accepts ?min=x,y,z&max=x,y,z for curl
// convenience; POST takes a QueryRequest body.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if r.Method == http.MethodGet {
		box, err := boxFromParams(r)
		if err != nil {
			badRequest(w, err)
			return
		}
		req.BoxJSON = box
	} else if err := s.decodeJSON(w, r, &req); err != nil {
		badRequest(w, fmt.Errorf("decoding query: %w", err))
		return
	}
	if err := req.validate(); err != nil {
		badRequest(w, err)
		return
	}
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	tr := s.tracer.Begin("query")
	ids, err := s.bat.do(ctx, req.Box(), tr)
	if err != nil {
		s.tracer.Finish(tr)
		s.writeCancelled(w, err)
		return
	}
	if ids == nil {
		ids = []int32{}
	}
	tr.SetResults(len(ids))
	// ~11 bytes per ID plus the envelope; the result buffer goes back to
	// the shard pool once the response bytes are encoded.
	encStart := traceNow(tr)
	writeJSONSized(w, http.StatusOK, QueryResponse{IDs: ids, Count: len(ids)}, 32+11*len(ids))
	tr.StageSince(telemetry.StageEncode, encStart)
	s.tracer.Finish(tr)
	shard.PutResultBuf(ids)
}

// traceNow reads the clock only when a trace is live, so unsampled requests
// skip the time syscall entirely.
func traceNow(tr *telemetry.Trace) time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// boxFromParams parses ?min=x,y,z&max=x,y,z.
func boxFromParams(r *http.Request) (BoxJSON, error) {
	var b BoxJSON
	min, err := parsePoint(r.URL.Query().Get("min"))
	if err != nil {
		return b, fmt.Errorf("min: %w", err)
	}
	max, err := parsePoint(r.URL.Query().Get("max"))
	if err != nil {
		return b, fmt.Errorf("max: %w", err)
	}
	b.Min, b.Max = min, max
	return b, nil
}

func parsePoint(s string) ([geom.Dims]float64, error) {
	var p [geom.Dims]float64
	parts := strings.Split(s, ",")
	if len(parts) != geom.Dims {
		return p, fmt.Errorf("want %d comma-separated coordinates, got %q", geom.Dims, s)
	}
	for d, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return p, err
		}
		p[d] = v
	}
	return p, nil
}

// handleBatch answers many queries as one worker-pool fan-out.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		badRequest(w, fmt.Errorf("decoding batch: %w", err))
		return
	}
	if len(req.Queries) > maxBatch {
		badRequest(w, fmt.Errorf("batch of %d queries exceeds limit %d", len(req.Queries), maxBatch))
		return
	}
	boxes := make([]geom.Box, len(req.Queries))
	for i, q := range req.Queries {
		if err := q.validate(); err != nil {
			badRequest(w, fmt.Errorf("query %d: %w", i, err))
			return
		}
		boxes[i] = q.Box()
	}
	tr := s.tracer.Begin("batch")
	tr.SetBatchSize(len(boxes))
	// A traced /batch threads the one batch-level trace through every
	// sub-query, so shared/exclusive probe counts aggregate over the whole
	// request.
	var traces []*telemetry.Trace
	if tr != nil {
		traces = make([]*telemetry.Trace, len(boxes))
		for i := range traces {
			traces[i] = tr
		}
	}
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	var results [][]int32
	var err error
	s.adm.execTraced(tr, func() {
		t0 := traceNow(tr)
		results, err = s.ix.QueryBatchCtx(ctx, boxes, traces)
		tr.StageSince(telemetry.StageFanout, t0)
	})
	if err != nil {
		s.tracer.Finish(tr)
		// Answered sub-queries hold pooled buffers; recycle before bailing.
		shard.RecycleResults(results)
		s.writeCancelled(w, err)
		return
	}
	total := 0
	for i := range results {
		if results[i] == nil {
			results[i] = []int32{}
		}
		total += len(results[i])
	}
	tr.SetResults(total)
	encStart := traceNow(tr)
	writeJSONSized(w, http.StatusOK, BatchResponse{Results: results}, 32+11*total+4*len(results))
	tr.StageSince(telemetry.StageEncode, encStart)
	s.tracer.Finish(tr)
	shard.RecycleResults(results)
}

// handleKNN answers a k-nearest-neighbor query.
func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	var req KNNRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		badRequest(w, fmt.Errorf("decoding knn: %w", err))
		return
	}
	for d := 0; d < geom.Dims; d++ {
		if math.IsNaN(req.Point[d]) || math.IsInf(req.Point[d], 0) {
			badRequest(w, fmt.Errorf("point coordinate %d is not finite", d))
			return
		}
	}
	if req.K <= 0 || req.K > maxK {
		badRequest(w, fmt.Errorf("k must be in [1, %d], got %d", maxK, req.K))
		return
	}
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	tr := s.tracer.Begin("knn")
	var nn []NeighborJSON
	var err error
	s.adm.execTraced(tr, func() {
		t0 := traceNow(tr)
		found, kerr := s.ix.KNNCtx(ctx, geom.Point(req.Point), req.K)
		tr.StageSince(telemetry.StageFanout, t0)
		err = kerr
		nn = make([]NeighborJSON, len(found))
		for i, n := range found {
			nn[i] = NeighborJSON{ID: n.ID, DistSq: n.DistSq}
		}
	})
	if err != nil { // KNNCtx fails only when ctx ends
		s.tracer.Finish(tr)
		s.writeCancelled(w, err)
		return
	}
	tr.SetResults(len(nn))
	encStart := traceNow(tr)
	writeJSONSized(w, http.StatusOK, KNNResponse{Neighbors: nn}, 32+48*len(nn))
	tr.StageSince(telemetry.StageEncode, encStart)
	s.tracer.Finish(tr)
}

// handleInsert routes new objects into the engine.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if s.followerRejectsWrites(w) {
		return
	}
	var req InsertRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		badRequest(w, fmt.Errorf("decoding insert: %w", err))
		return
	}
	if len(req.Objects) == 0 {
		badRequest(w, errors.New("no objects to insert"))
		return
	}
	if len(req.Objects) > maxBatch {
		badRequest(w, fmt.Errorf("insert of %d objects exceeds limit %d", len(req.Objects), maxBatch))
		return
	}
	objs := make([]geom.Object, len(req.Objects))
	for i, o := range req.Objects {
		if err := o.validate(); err != nil {
			badRequest(w, fmt.Errorf("object %d: %w", i, err))
			return
		}
		objs[i] = o.Object()
	}
	// Updates observe the context only BEFORE starting: once the WAL append
	// begins the operation runs to completion, because aborting between the
	// durable log and the in-memory apply would tear the two apart.
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	var err error
	s.adm.exec(func() {
		if err = ctx.Err(); err != nil {
			return
		}
		err = s.upd.Insert(objs...)
	})
	if err != nil {
		if ctxErr(err) {
			s.writeCancelled(w, err)
			return
		}
		writeUpdateErr(w, err)
		return
	}
	// Pending is a lock-free estimate: sampling the engine's exact count
	// would lock every shard on the insert hot path. /stats reports the
	// authoritative number.
	pending := s.pending.Add(int64(len(objs)))
	s.maybeFlush(len(objs))
	writeJSON(w, http.StatusOK, InsertResponse{Inserted: len(objs), Pending: int(pending)})
}

// handleDelete removes one object.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.followerRejectsWrites(w) {
		return
	}
	var req DeleteRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		badRequest(w, fmt.Errorf("decoding delete: %w", err))
		return
	}
	if err := req.Hint.validate(); err != nil {
		badRequest(w, fmt.Errorf("hint: %w", err))
		return
	}
	// Same pre-start-only context discipline as /insert.
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	var found bool
	var err error
	s.adm.exec(func() {
		if err = ctx.Err(); err != nil {
			return
		}
		found, err = s.upd.Delete(req.ID, req.Hint.Box())
	})
	if err != nil {
		if ctxErr(err) {
			s.writeCancelled(w, err)
			return
		}
		writeUpdateErr(w, err)
		return
	}
	if found {
		s.maybeFlush(1)
	}
	writeJSON(w, http.StatusOK, DeleteResponse{Deleted: found})
}

// updateErrStatus maps an update failure onto an HTTP status: a degraded
// store (persistent disk failure, writes suspended while reads keep
// serving) is 503 so clients back off and retry once the disk heals,
// anything else (WAL I/O failure, a store mid-shutdown, a quarantined
// shard) is a retryable-by-semantics 500.
func updateErrStatus(err error) int {
	if errors.Is(err, ioerr.ErrDegraded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// writeUpdateErr answers a failed update, attaching Retry-After to the
// statuses that deserve a retry (degraded mode heals itself in the
// background, so "later" is meaningful advice).
func writeUpdateErr(w http.ResponseWriter, err error) {
	status := updateErrStatus(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// reqCtx derives the context a request's index work runs under: the
// request's own context (cancelled when the client disconnects) bounded by
// the configured per-request deadline, when any.
func (s *Server) reqCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return r.Context(), func() {}
}

// writeCancelled answers a request whose context ended mid-flight. A blown
// deadline gets a real 503 + Retry-After; a disconnected client never reads
// the body, but the status still feeds the error metrics honestly.
func (s *Server) writeCancelled(w http.ResponseWriter, err error) {
	s.mCancelled.Inc()
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
}

// ctxErr reports whether err is a context cancellation/expiry.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// maybeFlush folds pending updates in once enough have accumulated. The
// CAS claims the threshold crossing for exactly one caller (a racing loser
// leaves the counter above the threshold, so the very next update retries);
// the counter never goes negative, keeping the flush cadence at FlushEvery.
func (s *Server) maybeFlush(n int) {
	if s.cfg.FlushEvery <= 0 {
		return
	}
	f := int64(s.cfg.FlushEvery)
	if u := s.updates.Add(int64(n)); u >= f && s.updates.CompareAndSwap(u, u-f) {
		// Detached: the unlucky client that crossed the threshold should not
		// pay for folding every shard. Still bounded by the exec slots, and
		// Flush is safe concurrently with everything (per-shard locks).
		go s.adm.exec(func() {
			if err := s.ix.Flush(); err != nil {
				// Detached from any request, so the log is the only place
				// this failure can surface.
				s.log.Error("background flush failed", "err", err)
			}
			s.pending.Store(0)
		})
	}
}

// handleStats reports the serving metrics and engine state.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	uptime := time.Since(s.start)
	st := s.ix.Stats()
	resp := StatsResponse{
		UptimeSeconds: uptime.Seconds(),
		Runtime:       runtimeInfo(),
		Role:          s.role(),
		Repl:          s.replInfo(),
		Index: IndexStats{
			Objects:       st.Objects,
			Shards:        st.Shards,
			MinShardLen:   st.MinShardLen,
			MaxShardLen:   st.MaxShardLen,
			Quarantined:   st.Quarantined,
			Pending:       st.Pending,
			Deleted:       st.Deleted,
			Queries:       st.Core.Queries,
			Cracks:        st.Core.Cracks,
			Slices:        st.Core.SlicesCreated,
			SlicesRefined: st.Core.SlicesRefined,
			Tested:        st.Core.ObjectsTested,
			SharedQueries: st.Core.SharedQueries,
		},
		Admission: s.adm.stats(),
		Batcher:   s.bat.stats(),
		Endpoints: make(map[string]EndpointStats, len(s.met)),
	}
	if s.store != nil {
		seq, walBytes, ckpts, last := s.store.DurabilityStats()
		resp.Durability = DurabilityStats{
			Enabled:               true,
			SnapshotSeq:           seq,
			WALBytes:              walBytes,
			Checkpoints:           ckpts,
			LastCheckpointSeconds: last,
		}
	}
	for name, m := range s.met {
		resp.Endpoints[name] = m.stats(uptime)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSnapshot is the admin checkpoint trigger: it writes a fresh
// snapshot and truncates the write-ahead log, answering with the new
// snapshot sequence. Without a Durability hook it answers 501.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Durability == nil {
		writeJSON(w, http.StatusNotImplemented,
			ErrorResponse{Error: "server runs without durability (no -data-dir)"})
		return
	}
	var seq uint64
	var err error
	s.adm.exec(func() { seq, err = s.cfg.Durability.Checkpoint() })
	if err != nil {
		writeUpdateErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{Seq: seq})
}

// buildVersion resolves the binary's version once: the module version when
// built from a tagged checkout, otherwise the VCS revision debug.ReadBuildInfo
// embeds, otherwise "unknown" (tests, go run).
var buildVersion = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	rev, dirty := "", false
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			dirty = kv.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
})

// runtimeInfo snapshots the process identity shared by /healthz and /stats.
func runtimeInfo() RuntimeInfo {
	return RuntimeInfo{
		Version:    buildVersion(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// handleHealthz is the liveness probe. It must answer even while every
// shard lock is held by cracking queries, so it reads only lock-free state.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:  "ok",
		Objects: s.ix.ApproxLen(),
		Shards:  s.ix.NumShards(),
		Role:    s.role(),
		Runtime: runtimeInfo(),
	})
}

// replInfo snapshots the follower probe for /stats and /readyz; nil when
// the server is not in follower mode.
func (s *Server) replInfo() *ReplInfo {
	f := s.cfg.ReplFollower
	if f == nil {
		return nil
	}
	applied, leaderSeq, lagRec, lagSec, boot := f.ReplProbe()
	return &ReplInfo{
		Role:         s.role(),
		LeaderURL:    f.LeaderURL(),
		AppliedSeq:   applied,
		LeaderSeq:    leaderSeq,
		LagRecords:   lagRec,
		LagSeconds:   lagSec,
		Bootstrapped: boot,
		Writable:     f.Writable(),
	}
}

// maxLag resolves the configured /readyz catch-up bound.
func (s *Server) maxLag() int64 {
	if s.cfg.MaxLagRecords == 0 {
		return 1024
	}
	return s.cfg.MaxLagRecords
}

// handleReadyz is the readiness probe: 503 until the embedding process has
// declared its state loaded (see SetReady), 200 with the recovery provenance
// afterwards. Like /healthz it reads only lock-free state, so it answers
// while every shard lock is held.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := ReadyResponse{Ready: s.ready.Load(), Status: "ready"}
	if s.store != nil {
		seq, replayed, bootstrapped, secs := s.store.RecoveryInfo()
		resp.Recovery = &RecoveryInfo{
			SnapshotSeq:        seq,
			WALRecordsReplayed: replayed,
			Bootstrapped:       bootstrapped,
			RestoreSeconds:     secs,
		}
	}
	// Degraded is visible but not unready: converged reads keep serving, so
	// the probe stays 200 and load balancers keep routing — only writes shed
	// (503 from the update handlers) until the store heals itself.
	if s.store != nil {
		if deg, reason := s.store.Degraded(); deg {
			resp.Degraded = true
			resp.DegradedReason = reason
			if resp.Ready {
				resp.Status = "degraded"
			}
		}
	}
	// Follower mode gates readiness on catch-up: a replica still
	// bootstrapping, or lagging past the configured bound, answers 503 so
	// load balancers stop routing reads to stale state. A promoted
	// follower is a leader and gates on nothing.
	if repl := s.replInfo(); repl != nil {
		resp.Repl = repl
		if !repl.Writable {
			if !repl.Bootstrapped {
				resp.Ready = false
				resp.Status = "replicating"
			} else if bound := s.maxLag(); bound >= 0 && repl.LagRecords > bound {
				resp.Ready = false
				resp.Status = "lagging"
			}
		}
	}
	status := http.StatusOK
	if !resp.Ready {
		if resp.Status == "ready" {
			resp.Status = "loading"
		}
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}
