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
	"fmt"
	"io"
	"net/http"
	"strconv"
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
	// send POSTs body to url until it answers 200 (decoded into out) or
	// the readiness window passes, reporting which.
	send := func(url string, body, out interface{}) bool {
		return poll(cfg.WaitReady, 25*time.Millisecond, func() bool {
			code, _ := call(client, http.MethodPost, url, body, out)
			return code == http.StatusOK
		})
	}

	// Start the follower first, against a leader that does not exist yet.
	// Its listener binds immediately while the bootstrap fetch retries with
	// backoff, so /readyz is guaranteed to answer 503 — the catch-up gate is
	// observed deterministically instead of racing a fast local bootstrap
	// that can finish between two polls.
	follower, err := startProc(cfg.FollowerCommand, cfg.ServerOut)
	if err != nil {
		return nil, fmt.Errorf("failover: starting follower: %w", err)
	}
	defer follower.term()
	if !poll(cfg.WaitReady, 5*time.Millisecond,
		answers(client, cfg.FollowerURL+"/readyz", http.StatusServiceUnavailable)) {
		return res, fmt.Errorf("failover: follower never answered /readyz at %s", cfg.FollowerURL)
	}
	res.ReadinessGated = true

	leader, err := startProc(cfg.LeaderCommand, cfg.ServerOut)
	if err != nil {
		return nil, fmt.Errorf("failover: starting leader: %w", err)
	}
	defer leader.kill() // no-op once the scenario has killed it
	if !poll(cfg.WaitReady, 50*time.Millisecond, answers(client, cfg.LeaderURL+"/healthz", http.StatusOK)) {
		return nil, fmt.Errorf("failover: leader never became healthy at %s", cfg.LeaderURL)
	}

	// Watch the follower's /readyz converge: bootstrapping, then catching up
	// past -max-lag, then 200.
	if !poll(cfg.WaitReady, 25*time.Millisecond, answers(client, cfg.FollowerURL+"/readyz", http.StatusOK)) {
		return res, fmt.Errorf("failover: follower never became ready at %s", cfg.FollowerURL)
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
	// IDs are disjoint from both loadgen write-cycle ranges (they start at
	// LoadgenWriteBase + a sub-2^28 nonce and stay below +2^29).
	nonce := int32(time.Now().UnixNano() & (1<<27 - 1))
	insert := func(url string, i int) (geom.Object, bool) {
		obj := geom.Object{
			Box: geom.BoxAt(cfg.Queries[i%len(cfg.Queries)].Center(), 1),
			ID:  LoadgenWriteBase + 1<<29 + nonce + int32(i),
		}
		var iresp server.InsertResponse
		return obj, send(url+"/insert", server.InsertRequest{
			Objects: []server.ObjectJSON{{ID: obj.ID, BoxJSON: server.BoxToJSON(obj.Box)}},
		}, &iresp)
	}
	acked := make([]geom.Object, 0, cfg.AckWrites)
	for i := 0; i < cfg.AckWrites; i++ {
		obj, ok := insert(cfg.LeaderURL, i)
		if !ok {
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
	code, _ := call(client, http.MethodPost, cfg.FollowerURL+"/insert", probe, nil)
	res.FollowerRejectedWrites = code == http.StatusServiceUnavailable

	// Gate the kill on the follower having applied every acknowledged
	// record, measured against the leader's own sequence counter. The
	// follower's lag gauge compares against the leader next-seq it learned
	// from its last poll response, which can be one write stale: an acked
	// record landing just after that response is invisible to the gauge, and
	// killing inside that window sheds the record legitimately (replication
	// is asynchronous) but fails the zero-loss audit this harness exists to
	// make. The harness writer has stopped, so the leader's counter is
	// stable and the comparison is race-free. The leader's next sequence is
	// the X-Quasii-Next-Seq header of a zero-wait /repl/wal probe from the
	// follower's applied+1, a sequence the leader still retains (the
	// follower received it moments ago); a 410 (just garbage-collected)
	// re-polls.
	caughtUp := poll(cfg.WaitReady, 25*time.Millisecond, func() bool {
		var st server.StatsResponse
		if code, _ := call(client, http.MethodGet, cfg.FollowerURL+"/stats", nil, &st); code != http.StatusOK ||
			st.Repl == nil || !st.Repl.Bootstrapped || st.Repl.LagRecords != 0 {
			return false
		}
		from := st.Repl.AppliedSeq + 1
		code, h := call(client, http.MethodGet,
			fmt.Sprintf("%s%s?from=%d&wait=0", cfg.LeaderURL, repl.PathWAL, from), nil, nil)
		if code != http.StatusOK && code != http.StatusNoContent {
			return false
		}
		next, err := strconv.ParseUint(h.Get(repl.HdrNextSeq), 10, 64)
		return err == nil && from >= next
	})
	if !caughtUp {
		return res, fmt.Errorf("failover: follower never reached zero lag")
	}

	// Machine crash: SIGKILL the leader mid-run, shrink the read pool so
	// retried reads drain to the follower, then promote it.
	leader.kill()
	pool.Set(cfg.FollowerURL)
	var presp server.PromoteResponse
	if code, _ := call(client, http.MethodPost, cfg.FollowerURL+repl.PathPromote, nil, &presp); code != http.StatusOK {
		return res, fmt.Errorf("failover: promote answered %d", code)
	}
	res.PromoteSeq = presp.Seq

	// Zero-loss audit: every acknowledged object must answer on the
	// promoted follower.
	for _, obj := range acked {
		var qresp server.QueryResponse
		if !send(cfg.FollowerURL+"/query", server.QueryRequest{BoxJSON: server.BoxToJSON(obj.Box)}, &qresp) ||
			!containsID(qresp.IDs, obj.ID) {
			res.LostWrites++
		}
	}

	// The promoted follower is the new leader: writes must flow again.
	for i := 0; i < 3; i++ {
		if _, ok := insert(cfg.FollowerURL, cfg.AckWrites+1+i); ok {
			res.PostPromoteWrites++
		}
	}

	res.Load = <-loadDone
	return res, nil
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
