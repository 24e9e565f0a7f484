// Failover harness: run a leader/follower pair as real processes, push
// acknowledged writes at the leader under concurrent read load fanned over
// both servers, SIGKILL the leader once the follower has applied every
// acknowledged record (verified against the leader's own sequence counter,
// not the follower's possibly-stale lag gauge), promote the follower, and
// prove that every acknowledged write survived — the process-level,
// zero-loss validation of the replication subsystem. The kill is lag-gated
// on purpose: replication is asynchronous, so the honest guarantee is
// "acknowledged writes the follower had caught up to are never lost", and
// the harness measures exactly that boundary.

package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/geom"
	"repro/internal/repl"
	"repro/internal/server"
)

// FailoverConfig parameterizes one failover run.
type FailoverConfig struct {
	// LeaderCommand / FollowerCommand are the two server command lines,
	// argv-style. The follower command must point -replicate-from at
	// LeaderURL and use its own -data-dir.
	LeaderCommand   []string
	FollowerCommand []string
	// LeaderURL / FollowerURL are the two base URLs.
	LeaderURL   string
	FollowerURL string
	// Queries is the read workload fanned across both servers for the whole
	// run (oracle-validated when Oracle is set).
	Queries []geom.Box
	// Oracle returns the expected IDs for a query over the leader's base
	// dataset (loadgen/harness-written IDs are filtered before comparing).
	Oracle func(q geom.Box) []int32
	// Clients is the reader goroutine count (min 1).
	Clients int
	// AckWrites is how many acknowledged inserts the harness writer pushes
	// at the leader before the kill (min 1).
	AckWrites int
	// WaitReady bounds each readiness poll. 0 selects 60s.
	WaitReady time.Duration
	// ServerOut receives both servers' stdout+stderr (nil discards).
	ServerOut io.Writer
	// Client overrides the harness HTTP client.
	Client *http.Client
}

// FailoverResult aggregates one failover run.
type FailoverResult struct {
	// ReadinessGated reports that the follower's /readyz answered 503 at
	// least once before its first 200 — the catch-up gate was observed
	// doing its job, not raced past.
	ReadinessGated bool
	// FollowerRejectedWrites reports that a pre-promotion write against the
	// follower answered 503 (read replicas never silently accept writes).
	FollowerRejectedWrites bool
	// AckedWrites is how many harness inserts the dead leader acknowledged.
	AckedWrites int
	// LostWrites counts acknowledged IDs missing from the promoted
	// follower. The run's headline number: it must be zero.
	LostWrites int
	// PromoteSeq is the promotion checkpoint's snapshot sequence.
	PromoteSeq uint64
	// PostPromoteWrites counts writes the promoted follower accepted.
	PostPromoteWrites int
	// Load is the concurrent read-side result (fanned over both servers,
	// riding out the leader kill via the shrinking URL pool).
	Load *LoadgenResult
}

// failoverProc owns one server process.
type failoverProc struct {
	name string
	cmd  *exec.Cmd
}

func startProc(name string, argv []string, out io.Writer) (*failoverProc, error) {
	if len(argv) == 0 {
		return nil, fmt.Errorf("failover: empty %s command", name)
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	if out == nil {
		out = io.Discard
	}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("failover: starting %s: %w", name, err)
	}
	return &failoverProc{name: name, cmd: cmd}, nil
}

// kill SIGKILLs the process: the machine-crash simulation.
func (p *failoverProc) kill() {
	if p == nil || p.cmd == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// term asks for a graceful exit, escalating to SIGKILL after 10s.
func (p *failoverProc) term() {
	if p == nil || p.cmd == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	waited := make(chan struct{})
	go func() {
		p.cmd.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-waited
	}
}

// getJSON fetches url and decodes the body into out, returning the status
// code. Transport errors return 0.
func getJSON(client *http.Client, url string, out interface{}) int {
	resp, err := client.Get(url)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if json.NewDecoder(resp.Body).Decode(out) != nil {
			return 0
		}
		return resp.StatusCode
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// RunFailover executes the full scenario. The returned error covers
// harness-level failures (a server never came up, the follower never
// caught up, promotion failed); correctness verdicts — lost writes, oracle
// mismatches, the readiness gate — live in the result for the caller to
// assert on.
func RunFailover(cfg FailoverConfig) (*FailoverResult, error) {
	if cfg.WaitReady <= 0 {
		cfg.WaitReady = 60 * time.Second
	}
	if cfg.AckWrites < 1 {
		cfg.AckWrites = 1
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	res := &FailoverResult{}

	// Start the follower first, against a leader that does not exist yet.
	// Its listener binds immediately while the bootstrap fetch retries with
	// backoff, so /readyz is guaranteed to answer 503 — the catch-up gate is
	// observed deterministically instead of racing a fast local bootstrap
	// that can finish between two polls.
	follower, err := startProc("follower", cfg.FollowerCommand, cfg.ServerOut)
	if err != nil {
		return nil, err
	}
	defer follower.term()
	deadline := time.Now().Add(cfg.WaitReady)
	for {
		if getJSON(client, cfg.FollowerURL+"/readyz", nil) == http.StatusServiceUnavailable {
			res.ReadinessGated = true
			break
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("failover: follower never answered /readyz at %s", cfg.FollowerURL)
		}
		time.Sleep(5 * time.Millisecond)
	}

	leader, err := startProc("leader", cfg.LeaderCommand, cfg.ServerOut)
	if err != nil {
		return nil, err
	}
	defer leader.kill() // no-op once the scenario has killed it
	if !waitHealthy(client, cfg.LeaderURL, cfg.WaitReady) {
		return nil, fmt.Errorf("failover: leader never became healthy at %s", cfg.LeaderURL)
	}

	// Watch the follower's /readyz converge: bootstrapping, then catching up
	// past -max-lag, then 200.
	deadline = time.Now().Add(cfg.WaitReady)
	for {
		code := getJSON(client, cfg.FollowerURL+"/readyz", nil)
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("failover: follower never became ready at %s", cfg.FollowerURL)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Concurrent read load over both servers for the rest of the scenario.
	// RetryTransport + the per-attempt pool re-pick is what carries reads
	// across the leader kill.
	pool := NewURLPool(cfg.LeaderURL, cfg.FollowerURL)
	loadDone := make(chan *LoadgenResult, 1)
	go func() {
		loadDone <- RunLoadgen(LoadgenConfig{
			BaseURL:        cfg.LeaderURL,
			Clients:        cfg.Clients,
			Queries:        cfg.Queries,
			Oracle:         cfg.Oracle,
			ReadPool:       pool,
			RetryTransport: true,
			Client:         client,
		})
	}()

	// The harness writer: acknowledged inserts against the leader. Each
	// object sits at a workload query's center with an ID above
	// LoadgenWriteBase, so the concurrent oracle comparison ignores it.
	var discard, errs atomic.Int64
	lc := &loadgenClient{
		cfg:    &LoadgenConfig{BaseURL: cfg.LeaderURL, MaxRetries: 200},
		client: client, rejected: &discard, unavailable: &discard,
		transport: &discard, errors: &errs,
	}
	nonce := int32(time.Now().UnixNano() & (1<<27 - 1))
	acked := make([]geom.Object, 0, cfg.AckWrites)
	for i := 0; i < cfg.AckWrites; i++ {
		q := cfg.Queries[i%len(cfg.Queries)]
		obj := geom.Object{
			Box: geom.BoxAt(q.Center(), 1),
			// Disjoint from both loadgen write-cycle ranges (they start at
			// LoadgenWriteBase + a sub-2^28 nonce and stay below +2^29).
			ID: LoadgenWriteBase + 1<<29 + nonce + int32(i),
		}
		var iresp server.InsertResponse
		if !lc.post("/insert", server.InsertRequest{
			Objects: []server.ObjectJSON{{ID: obj.ID, BoxJSON: server.BoxToJSON(obj.Box)}},
		}, &iresp) {
			return res, fmt.Errorf("failover: leader refused harness insert %d", i)
		}
		acked = append(acked, obj)
	}
	res.AckedWrites = len(acked)

	// A write against the still-read-only follower must be rejected, not
	// silently applied (it would fork the replica from the leader).
	probe := server.InsertRequest{Objects: []server.ObjectJSON{{
		ID:      LoadgenWriteBase + 1<<29 + nonce + int32(cfg.AckWrites),
		BoxJSON: server.BoxToJSON(geom.BoxAt(cfg.Queries[0].Center(), 1)),
	}}}
	if code := postStatus(client, cfg.FollowerURL+"/insert", probe); code == http.StatusServiceUnavailable {
		res.FollowerRejectedWrites = true
	}

	// Gate the kill on the follower having applied every acknowledged
	// record, measured against the leader's own sequence counter. The
	// follower's lag gauge compares against the leader next-seq it learned
	// from its last poll response, which can be one write stale: an acked
	// record landing just after that response is invisible to the gauge, and
	// killing inside that window sheds the record legitimately (replication
	// is asynchronous) but fails the zero-loss audit this harness exists to
	// make. The harness writer has stopped, so the leader's counter is
	// stable and the comparison is race-free.
	deadline = time.Now().Add(cfg.WaitReady)
	for {
		var st server.StatsResponse
		code := getJSON(client, cfg.FollowerURL+"/stats", &st)
		if code == http.StatusOK && st.Repl != nil &&
			st.Repl.Bootstrapped && st.Repl.LagRecords == 0 {
			next, ok := leaderNextSeq(client, cfg.LeaderURL, st.Repl.AppliedSeq+1)
			if ok && st.Repl.AppliedSeq+1 >= next {
				break
			}
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("failover: follower never reached zero lag")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Machine crash: SIGKILL the leader mid-run, shrink the read pool so
	// retried reads drain to the follower, then promote it.
	leader.kill()
	pool.Set(cfg.FollowerURL)
	var presp server.PromoteResponse
	preq, err := http.NewRequest(http.MethodPost, cfg.FollowerURL+repl.PathPromote, nil)
	if err != nil {
		return res, err
	}
	presp2, err := client.Do(preq)
	if err != nil {
		return res, fmt.Errorf("failover: promote request: %w", err)
	}
	defer presp2.Body.Close()
	if presp2.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(presp2.Body, 512))
		return res, fmt.Errorf("failover: promote answered %s: %s", presp2.Status, body)
	}
	if err := json.NewDecoder(presp2.Body).Decode(&presp); err != nil {
		return res, fmt.Errorf("failover: decoding promote response: %w", err)
	}
	res.PromoteSeq = presp.Seq

	// Zero-loss audit: every acknowledged object must answer on the
	// promoted follower.
	flc := &loadgenClient{
		cfg:    &LoadgenConfig{BaseURL: cfg.FollowerURL, MaxRetries: 200},
		client: client, rejected: &discard, unavailable: &discard,
		transport: &discard, errors: &errs,
	}
	for _, obj := range acked {
		var qresp server.QueryResponse
		if !flc.post("/query", server.QueryRequest{BoxJSON: server.BoxToJSON(obj.Box)}, &qresp) ||
			!containsID(qresp.IDs, obj.ID) {
			res.LostWrites++
		}
	}

	// The promoted follower is the new leader: writes must flow again.
	for i := 0; i < 3; i++ {
		obj := geom.Object{
			Box: geom.BoxAt(cfg.Queries[i%len(cfg.Queries)].Center(), 1),
			ID:  LoadgenWriteBase + 1<<29 + nonce + int32(cfg.AckWrites) + 1 + int32(i),
		}
		var iresp server.InsertResponse
		if flc.post("/insert", server.InsertRequest{
			Objects: []server.ObjectJSON{{ID: obj.ID, BoxJSON: server.BoxToJSON(obj.Box)}},
		}, &iresp) {
			res.PostPromoteWrites++
		}
	}

	res.Load = <-loadDone
	return res, nil
}

// leaderNextSeq reads the leader's next WAL sequence from the
// X-Quasii-Next-Seq header of a zero-wait /repl/wal probe. from must be a
// sequence the leader plausibly retains — a follower's applied+1 qualifies,
// since the follower received it from the leader's retained log moments
// ago. A 410 (just garbage-collected) reports failure and the caller
// re-polls.
func leaderNextSeq(client *http.Client, base string, from uint64) (uint64, bool) {
	resp, err := client.Get(fmt.Sprintf("%s%s?from=%d&wait=0", base, repl.PathWAL, from))
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		io.Copy(io.Discard, resp.Body)
		return 0, false
	}
	next, err := strconv.ParseUint(resp.Header.Get(repl.HdrNextSeq), 10, 64)
	return next, err == nil
}

// postStatus POSTs body as JSON and returns the raw status code (0 on
// transport or encoding failure), for probes that assert on rejections.
func postStatus(client *http.Client, url string, body interface{}) int {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// PrintFailover writes the failover run summary in the greppable shape
// scripts/replication-smoke.sh asserts on.
func PrintFailover(w io.Writer, r *FailoverResult) {
	fmt.Fprintf(w, "failover: follower readiness gated during catch-up: %v\n", r.ReadinessGated)
	fmt.Fprintf(w, "failover: follower rejected pre-promotion writes: %v\n", r.FollowerRejectedWrites)
	fmt.Fprintf(w, "failover: promoted follower at snapshot seq %d\n", r.PromoteSeq)
	fmt.Fprintf(w, "failover: %d acked writes before kill, %d lost after promotion\n",
		r.AckedWrites, r.LostWrites)
	fmt.Fprintf(w, "failover: %d post-promotion writes accepted\n", r.PostPromoteWrites)
	if r.Load != nil {
		PrintLoadgen(w, r.Load)
	}
}
