// HTTP load generation against the serving subsystem (internal/server).
// The driver is shared by cmd/quasii-loadgen and the benchmarks: a pool of
// client goroutines drains a query workload over HTTP, optionally mixes in
// insert/delete cycles, validates every response against a local oracle,
// and retries 429 backpressure rejections — and 503 degraded-mode
// rejections, honoring Retry-After — with exponential backoff: the
// well-behaved-client half of the admission-control and failure stories.

package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// LoadgenWriteBase is the first object ID the load generator uses for its
// own inserts. Response IDs at or above it are loadgen-written objects
// (possibly another client's in-flight ones) and are excluded from the
// oracle comparison; serve datasets must stay below it.
const LoadgenWriteBase int32 = 1 << 30

// LoadgenConfig parameterizes one load-generation run.
type LoadgenConfig struct {
	// BaseURL of the target server, e.g. "http://localhost:8080".
	BaseURL string
	// Clients is the number of concurrent client goroutines (min 1).
	Clients int
	// Queries is the shared range-query workload the clients drain.
	Queries []geom.Box
	// Oracle, when non-nil, returns the expected IDs for a query over the
	// server's base dataset. Responses are compared after filtering out
	// loadgen-written IDs (≥ LoadgenWriteBase); a difference counts as a
	// mismatch.
	Oracle func(q geom.Box) []int32
	// WriteEvery mixes one insert→verify→delete→verify cycle into every
	// Nth query a client executes. 0 keeps the run read-only.
	WriteEvery int
	// Writers adds that many dedicated writer goroutines running
	// insert→verify→delete cycles for the whole run, concurrently with the
	// reader clients — the readers/writers mixed-workload mode that
	// exercises the engine's shared-read/exclusive-write scheduling end to
	// end over HTTP. Writers stop when the readers drain the workload.
	// 0 disables.
	Writers int
	// AuditVisibility promotes the write cycles' read-your-writes checks
	// from anonymous mismatches to a first-class audit: every acked insert
	// must be observed by the same client's immediate re-read, and every
	// acked delete must stay invisible to it. AuditedWrites counts the
	// checks, VisibilityViolations the failures — the consistency-contract
	// assertion the restart smoke legs gate on.
	AuditVisibility bool
	// MaxRetries bounds the retries per request (429, 503 and — with
	// RetryTransport — transport errors share the budget). 0 selects 100.
	MaxRetries int
	// RetryTransport also retries transport errors (connection refused,
	// reset) with the same backoff. Off by default — against a stable
	// server a refused connection is a real failure — and switched on by
	// the chaos mode, where the server is deliberately killed mid-run and
	// every client must ride out the restart window.
	RetryTransport bool
	// WaitReady, when positive, polls the server's /healthz for up to that
	// long before the run starts, so a driver script can launch (or
	// restart) quasii-serve and the load generator back to back — the
	// kill-restart validation flow needs this, since a restarting durable
	// server replays its WAL before it listens. The run proceeds (and
	// fails fast) if the deadline passes without a 200.
	WaitReady time.Duration
	// ReadPool, when non-nil, fans range queries across a live set of base
	// URLs (leader plus read replicas) instead of BaseURL. The pool is
	// consulted again on every retry attempt, so when a replica dies — or
	// the failover harness shrinks the pool mid-run — the retried request
	// lands on a survivor. Writes always go to BaseURL: replicas are
	// read-only until promoted.
	ReadPool *URLPool
	// Client overrides the HTTP client (nil selects a pooled default).
	Client *http.Client
}

// URLPool is a mutable, concurrency-safe set of server base URLs the read
// side of a load-generation run fans over. Set replaces the whole set
// atomically; in-flight requests pick up the new membership on their next
// attempt.
type URLPool struct {
	urls atomic.Value // []string, never empty once constructed
	ctr  atomic.Uint64
}

// NewURLPool builds a pool over the given base URLs (at least one).
func NewURLPool(urls ...string) *URLPool {
	p := &URLPool{}
	p.Set(urls...)
	return p
}

// Set atomically replaces the pool membership (no-op on an empty set: a
// pool must always have somewhere to send reads).
func (p *URLPool) Set(urls ...string) {
	if len(urls) == 0 {
		return
	}
	p.urls.Store(append([]string(nil), urls...))
}

// Pick returns the next base URL round-robin.
func (p *URLPool) Pick() string {
	urls := p.urls.Load().([]string)
	return urls[p.ctr.Add(1)%uint64(len(urls))]
}

// LoadgenResult aggregates one run.
type LoadgenResult struct {
	Clients      int
	Writers      int   // dedicated writer goroutines (mixed mode)
	Queries      int   // range queries answered 200
	Writes       int   // insert→delete cycles completed by readers (WriteEvery)
	WriterCycles int   // insert→delete cycles completed by dedicated writers
	Rejected     int64 // 429 responses absorbed by retry
	Unavailable  int64 // 503 responses absorbed by retry (degraded store, restarts)
	Transport    int64 // transport errors absorbed by retry (RetryTransport)
	Errors       int64 // non-retryable failures (transport, 5xx, retries exhausted)
	Mismatches   int64 // oracle disagreements

	// The acked-write visibility audit (AuditVisibility): read-your-writes
	// checks performed and the ones that failed — an acked insert a
	// same-client read could not see, or an acked delete that stayed
	// visible. Always 0 violations on a correct server.
	AuditedWrites        int64
	VisibilityViolations int64
	Wall                 time.Duration // wall clock for the whole run
	// Latencies holds every successful range query's latency, all clients,
	// over telemetry.DurationBuckets — the server's own layout, so the
	// client's quantiles and the server's come from one estimator.
	Latencies  *telemetry.Histogram
	MaxLatency time.Duration // exact, not bucketed
}

// newLatencies returns an empty client latency histogram. It lives in a
// private registry: the load generator exports no metrics.
func newLatencies() *telemetry.Histogram {
	return telemetry.NewRegistry().Histogram("loadgen_query_seconds",
		"Client-side latency of successful range queries.", telemetry.DurationBuckets)
}

// QPS returns successful range queries per second of wall time.
func (r *LoadgenResult) QPS() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Queries) / r.Wall.Seconds()
}

// loadgenClient wraps the per-request mechanics: JSON round-trip plus
// bounded-backoff retry on 429, 503 and (in chaos mode) transport errors.
// One client is shared by every goroutine of a run; its counters are the
// run's.
type loadgenClient struct {
	cfg    *LoadgenConfig
	client *http.Client

	rejected, unavailable, transport, errors atomic.Int64
	mismatches, audited, violations          atomic.Int64
}

// retryAfter reads the response's Retry-After header as whole seconds,
// capped at one second so a degraded server's hint cannot stall a client
// goroutine for longer than a restart typically takes. 0 when absent or
// unparsable (the HTTP-date form is not worth supporting here).
func retryAfter(resp *http.Response) time.Duration {
	s, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || s <= 0 {
		return 0
	}
	if s > 1 {
		s = 1
	}
	return time.Duration(s) * time.Second
}

// post sends body and decodes the 200 answer into out, retrying 429
// (backpressure) and 503 (degraded store, mid-restart) with exponential
// backoff (1ms doubling, capped at 50ms); a 503's Retry-After hint
// overrides the backoff when longer. It reports success.
func (lc *loadgenClient) post(path string, body, out interface{}) bool {
	buf, err := json.Marshal(body)
	if err != nil {
		lc.errors.Add(1)
		return false
	}
	backoff := time.Millisecond
	maxRetries := lc.cfg.MaxRetries
	if maxRetries <= 0 {
		maxRetries = 100
	}
	for attempt := 0; ; attempt++ {
		base := lc.cfg.BaseURL
		if lc.cfg.ReadPool != nil && path == "/query" {
			// Re-picked every attempt: a retry after a replica died routes
			// to whichever servers the pool holds now.
			base = lc.cfg.ReadPool.Pick()
		}
		resp, err := lc.client.Post(base+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			// Chaos mode: the server may be down for a restart window, so a
			// refused connection is expected traffic weather, not a failure.
			if lc.cfg.RetryTransport && attempt < maxRetries {
				lc.transport.Add(1)
				time.Sleep(backoff)
				if backoff < 50*time.Millisecond {
					backoff *= 2
				}
				continue
			}
			lc.errors.Add(1)
			return false
		}
		if resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable {
			wait := backoff
			if resp.StatusCode == http.StatusTooManyRequests {
				lc.rejected.Add(1)
			} else {
				lc.unavailable.Add(1)
				if ra := retryAfter(resp); ra > wait {
					wait = ra
				}
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if attempt >= maxRetries {
				lc.errors.Add(1)
				return false
			}
			time.Sleep(wait)
			if backoff < 50*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		ok := resp.StatusCode == http.StatusOK
		if ok && out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				ok = false
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		resp.Body.Close()
		if !ok {
			lc.errors.Add(1)
		}
		return ok
	}
}

// RunLoadgen drives the workload and returns the aggregated result. The
// run itself never fails — transport errors, rejections and mismatches are
// counted, not returned — so callers can assert on the counters.
func RunLoadgen(cfg LoadgenConfig) *LoadgenResult {
	clients := cfg.Clients
	if clients < 1 {
		clients = 1
	}
	httpClient := cfg.Client
	if httpClient == nil {
		httpClient = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: clients,
			},
		}
	}
	if cfg.WaitReady > 0 {
		// The run proceeds (and fails fast) if the server never turns healthy.
		poll(cfg.WaitReady, 50*time.Millisecond, answers(httpClient, cfg.BaseURL+"/healthz", http.StatusOK))
	}
	res := &LoadgenResult{Clients: clients, Writers: cfg.Writers, Latencies: newLatencies()}
	var queriesOK, writesOK, writerCycles atomic.Int64
	lc := &loadgenClient{cfg: &cfg, client: httpClient}
	maxLat := make([]time.Duration, clients)
	// Per-run nonce for write IDs: a run that dies between insert and
	// delete leaves its object on a long-lived server, and a later run
	// reusing the same ID would fail its delete-verification through no
	// fault of the server. Within a run IDs stay unique because each query
	// index is drained exactly once.
	nonce := int32(time.Now().UnixNano() & (1<<28 - 1))

	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	// Dedicated writers (mixed-workload mode): loop write cycles over the
	// query boxes until the readers drain the workload. Their IDs live in a
	// range disjoint from the readers' WriteEvery cycles (which use the
	// query index) so delete-verification never crosses goroutines.
	stop := make(chan struct{})
	var wwg sync.WaitGroup
	for w := 0; w < cfg.Writers && len(cfg.Queries) > 0; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			base := nonce + int32(len(cfg.Queries)) + int32(w)*10_000_000
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := cfg.Queries[(i*cfg.Writers+w)%len(cfg.Queries)]
				if lc.writeCycle(q, base+int32(i%10_000_000)) {
					writerCycles.Add(1)
				}
			}
		}(w)
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				qi := int(next.Add(1)) - 1
				if qi >= len(cfg.Queries) {
					break
				}
				q := cfg.Queries[qi]
				var qresp server.QueryResponse
				qt0 := time.Now()
				if !lc.post("/query", server.QueryRequest{BoxJSON: server.BoxToJSON(q)}, &qresp) {
					continue
				}
				lat := time.Since(qt0)
				res.Latencies.ObserveDuration(lat)
				maxLat[c] = max(maxLat[c], lat)
				queriesOK.Add(1)
				if cfg.Oracle != nil && !oracleMatch(qresp.IDs, cfg.Oracle(q)) {
					lc.mismatches.Add(1)
				}
				if cfg.WriteEvery > 0 && qi%cfg.WriteEvery == 0 {
					if lc.writeCycle(q, nonce+int32(qi)) {
						writesOK.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	res.Wall = time.Since(t0)
	close(stop)
	wwg.Wait()
	res.MaxLatency = slices.Max(maxLat)
	res.Queries = int(queriesOK.Load())
	res.Writes = int(writesOK.Load())
	res.WriterCycles = int(writerCycles.Load())
	res.Rejected = lc.rejected.Load()
	res.Unavailable = lc.unavailable.Load()
	res.Transport = lc.transport.Load()
	res.Errors = lc.errors.Load()
	res.Mismatches = lc.mismatches.Load()
	res.AuditedWrites = lc.audited.Load()
	res.VisibilityViolations = lc.violations.Load()
	return res
}

// writeCycle inserts a small object at the query's center, verifies
// read-your-write, deletes it, and verifies it is gone. The object's ID is
// LoadgenWriteBase plus the run nonce plus the query index (unique within
// a run, collision-resistant across runs against the same server).
func (lc *loadgenClient) writeCycle(q geom.Box, id int32) bool {
	obj := geom.Object{Box: geom.BoxAt(q.Center(), 1), ID: LoadgenWriteBase + id}
	var iresp server.InsertResponse
	if !lc.post("/insert", server.InsertRequest{
		Objects: []server.ObjectJSON{{ID: obj.ID, BoxJSON: server.BoxToJSON(obj.Box)}},
	}, &iresp) {
		return false
	}
	var qresp server.QueryResponse
	if !lc.post("/query", server.QueryRequest{BoxJSON: server.BoxToJSON(obj.Box)}, &qresp) {
		return false
	}
	if lc.cfg.AuditVisibility {
		lc.audited.Add(1)
	}
	if !containsID(qresp.IDs, obj.ID) {
		lc.mismatches.Add(1)
		if lc.cfg.AuditVisibility {
			lc.violations.Add(1)
		}
	}
	if lc.cfg.Oracle != nil && !oracleMatch(qresp.IDs, lc.cfg.Oracle(obj.Box)) {
		lc.mismatches.Add(1)
	}
	var dresp server.DeleteResponse
	if !lc.post("/delete", server.DeleteRequest{ID: obj.ID, Hint: server.BoxToJSON(obj.Box)}, &dresp) {
		return false
	}
	if !dresp.Deleted {
		lc.mismatches.Add(1)
		return false
	}
	if !lc.post("/query", server.QueryRequest{BoxJSON: server.BoxToJSON(obj.Box)}, &qresp) {
		return false
	}
	if lc.cfg.AuditVisibility {
		lc.audited.Add(1)
	}
	if containsID(qresp.IDs, obj.ID) {
		lc.mismatches.Add(1)
		if lc.cfg.AuditVisibility {
			lc.violations.Add(1)
		}
	}
	return true
}

// oracleMatch compares a response against the oracle's expected base IDs,
// ignoring loadgen-written IDs (other clients' in-flight objects).
func oracleMatch(got, want []int32) bool {
	base := make([]int32, 0, len(got))
	for _, id := range got {
		if id < LoadgenWriteBase {
			base = append(base, id)
		}
	}
	sort.Slice(base, func(i, j int) bool { return base[i] < base[j] })
	wantSorted := append([]int32(nil), want...)
	sort.Slice(wantSorted, func(i, j int) bool { return wantSorted[i] < wantSorted[j] })
	if len(base) != len(wantSorted) {
		return false
	}
	for i := range base {
		if base[i] != wantSorted[i] {
			return false
		}
	}
	return true
}

// seconds converts a float seconds value, as histograms hold them, to a
// duration rounded to the microsecond.
func seconds(v float64) time.Duration {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond)
}

func containsID(ids []int32, id int32) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// PrintLoadgen writes the run summary: throughput, the latency
// distribution, and the backpressure/validation counters.
func PrintLoadgen(w io.Writer, r *LoadgenResult) {
	fmt.Fprintf(w, "%d clients, %d queries ok, %d write cycles in %v -> %.0f queries/s\n",
		r.Clients, r.Queries, r.Writes, r.Wall.Round(time.Millisecond), r.QPS())
	if r.Writers > 0 {
		fmt.Fprintf(w, "writers: %d goroutines completed %d insert→verify→delete cycles (%.0f cycles/s)\n",
			r.Writers, r.WriterCycles, float64(r.WriterCycles)/r.Wall.Seconds())
	}
	var mean time.Duration
	if n := r.Latencies.Count(); n > 0 {
		mean = seconds(r.Latencies.Sum() / float64(n))
	}
	quantile := func(q float64) time.Duration {
		v, _ := r.Latencies.Quantile(q) // 0 when no query succeeded
		return seconds(v)
	}
	fmt.Fprintf(w, "latency: mean %v  max %v  p50 %v  p95 %v  p99 %v (from histogram buckets)\n",
		mean, r.MaxLatency.Round(time.Microsecond), quantile(0.50), quantile(0.95), quantile(0.99))
	fmt.Fprintf(w, "backpressure: %d rejections (429) and %d unavailable (503) absorbed; %d errors, %d oracle mismatches\n",
		r.Rejected, r.Unavailable, r.Errors, r.Mismatches)
	if r.Transport > 0 {
		fmt.Fprintf(w, "chaos: %d transport errors absorbed across restart windows\n", r.Transport)
	}
	if r.AuditedWrites > 0 || r.VisibilityViolations > 0 {
		fmt.Fprintf(w, "visibility audit: %d acked writes re-read, %d violations\n",
			r.AuditedWrites, r.VisibilityViolations)
	}
}
