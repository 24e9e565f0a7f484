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
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/stats"
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
	Wall                 time.Duration   // wall clock for the whole run
	Latencies            []time.Duration // per successful range query, all clients
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
type loadgenClient struct {
	cfg         *LoadgenConfig
	client      *http.Client
	rejected    *atomic.Int64
	unavailable *atomic.Int64
	transport   *atomic.Int64
	errors      *atomic.Int64
	audited     *atomic.Int64
	violations  *atomic.Int64
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
		waitHealthy(httpClient, cfg.BaseURL, cfg.WaitReady)
	}
	res := &LoadgenResult{Clients: clients, Writers: cfg.Writers}
	var queriesOK, writesOK, writerCycles, rejected, unavailable, transport, errors, mismatches atomic.Int64
	var audited, violations atomic.Int64
	newClient := func() *loadgenClient {
		return &loadgenClient{cfg: &cfg, client: httpClient, rejected: &rejected,
			unavailable: &unavailable, transport: &transport, errors: &errors,
			audited: &audited, violations: &violations}
	}
	perClient := make([][]time.Duration, clients)
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
			lc := newClient()
			base := nonce + int32(len(cfg.Queries)) + int32(w)*10_000_000
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := cfg.Queries[(i*cfg.Writers+w)%len(cfg.Queries)]
				if lc.writeCycle(q, base+int32(i%10_000_000), cfg.Oracle, &mismatches) {
					writerCycles.Add(1)
				}
			}
		}(w)
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lc := newClient()
			lats := make([]time.Duration, 0, len(cfg.Queries)/clients+1)
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
				lats = append(lats, time.Since(qt0))
				queriesOK.Add(1)
				if cfg.Oracle != nil && !oracleMatch(qresp.IDs, cfg.Oracle(q)) {
					mismatches.Add(1)
				}
				if cfg.WriteEvery > 0 && qi%cfg.WriteEvery == 0 {
					if lc.writeCycle(q, nonce+int32(qi), cfg.Oracle, &mismatches) {
						writesOK.Add(1)
					}
				}
			}
			perClient[c] = lats
		}(c)
	}
	wg.Wait()
	res.Wall = time.Since(t0)
	close(stop)
	wwg.Wait()
	for _, lats := range perClient {
		res.Latencies = append(res.Latencies, lats...)
	}
	res.Queries = int(queriesOK.Load())
	res.Writes = int(writesOK.Load())
	res.WriterCycles = int(writerCycles.Load())
	res.Rejected = rejected.Load()
	res.Unavailable = unavailable.Load()
	res.Transport = transport.Load()
	res.Errors = errors.Load()
	res.Mismatches = mismatches.Load()
	res.AuditedWrites = audited.Load()
	res.VisibilityViolations = violations.Load()
	return res
}

// writeCycle inserts a small object at the query's center, verifies
// read-your-write, deletes it, and verifies it is gone. The object's ID is
// LoadgenWriteBase plus the run nonce plus the query index (unique within
// a run, collision-resistant across runs against the same server).
func (lc *loadgenClient) writeCycle(q geom.Box, id int32, oracle func(geom.Box) []int32, mismatches *atomic.Int64) bool {
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
		mismatches.Add(1)
		if lc.cfg.AuditVisibility {
			lc.violations.Add(1)
		}
	}
	if oracle != nil && !oracleMatch(qresp.IDs, oracle(obj.Box)) {
		mismatches.Add(1)
	}
	var dresp server.DeleteResponse
	if !lc.post("/delete", server.DeleteRequest{ID: obj.ID, Hint: server.BoxToJSON(obj.Box)}, &dresp) {
		return false
	}
	if !dresp.Deleted {
		mismatches.Add(1)
		return false
	}
	if !lc.post("/query", server.QueryRequest{BoxJSON: server.BoxToJSON(obj.Box)}, &qresp) {
		return false
	}
	if lc.cfg.AuditVisibility {
		lc.audited.Add(1)
	}
	if containsID(qresp.IDs, obj.ID) {
		mismatches.Add(1)
		if lc.cfg.AuditVisibility {
			lc.violations.Add(1)
		}
	}
	return true
}

// waitHealthy polls GET /healthz until it answers 200 or the deadline
// passes, reporting which. Transport errors (server not yet listening) are
// expected and retried; they are what the wait exists to absorb.
func waitHealthy(client *http.Client, baseURL string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(baseURL + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return true
			}
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Millisecond)
	}
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
	fmt.Fprintf(w, "latency: mean %v  p50 %v  p95 %v  p99 %v  max %v\n",
		stats.Mean(r.Latencies), stats.Percentile(r.Latencies, 50),
		stats.Percentile(r.Latencies, 95), stats.Percentile(r.Latencies, 99),
		stats.Max(r.Latencies))
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
