package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/geom"
	"repro/internal/repl"
	"repro/internal/shard"
)

// replGate stands between a follower and its leader's server. Armed, it
// answers every WAL fetch 410 Gone, which makes the follower re-bootstrap,
// and holds the snapshot fetch that follows until release is closed.
type replGate struct {
	next    http.Handler
	armed   atomic.Bool
	release chan struct{}
}

func (g *replGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.armed.Load() {
		switch r.URL.Path {
		case repl.PathWAL:
			http.Error(w, "resume point truncated", http.StatusGone)
			return
		case repl.PathSnapshot:
			<-g.release
		}
	}
	g.next.ServeHTTP(w, r)
}

// TestFollowerServer runs a follower-mode server in process against a
// leader-mode server: the follower sheds writes with a leader hint, gates
// /readyz on replication (503 "replicating" while it re-bootstraps, 200
// once caught up), and POST /repl/promote turns it into a writable leader.
func TestFollowerServer(t *testing.T) {
	data := dataset.Uniform(1500, 181)
	leaderStore, err := durable.Open(t.TempDir(), durable.Options{
		Shard:     shard.Config{Shards: 2},
		Bootstrap: func() []geom.Object { return data },
		Fsync:     durable.FsyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leaderStore.Close()
	leader := New(leaderStore.Index(), Config{
		Durability:  leaderStore,
		ReplSource:  repl.NewLeader(leaderStore, nil, nil),
		BatchWindow: -1,
	})
	gate := &replGate{next: leader.Handler(), release: make(chan struct{})}
	lts := httptest.NewServer(gate)
	defer lts.Close()
	release := sync.OnceFunc(func() { close(gate.release) })
	defer release() // a failure mid-test must not leave a fetch held
	client := lts.Client()

	var health HealthResponse
	if st := call(t, client, http.MethodGet, lts.URL+"/healthz", nil, &health); st != http.StatusOK || health.Role != "leader" {
		t.Fatalf("leader /healthz: %d, role %q", st, health.Role)
	}

	// The follower's service is rebuilt on every state swap, as
	// quasii-serve does: a re-bootstrap replaces the store under it.
	var fol atomic.Pointer[repl.Follower]
	var handler atomic.Value // http.Handler
	build := func(st *durable.Store) {
		handler.Store(New(st.Index(), Config{
			Durability:   st,
			ReplFollower: fol.Load(),
			BatchWindow:  -1,
		}).Handler())
	}
	f, err := repl.Open(context.Background(), repl.FollowerOptions{
		LeaderURL:   lts.URL,
		Dir:         filepath.Join(t.TempDir(), "follower"),
		Store:       durable.Options{Shard: shard.Config{Shards: 2}, Fsync: durable.FsyncNever},
		PollWait:    50 * time.Millisecond,
		BackoffMin:  2 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		OnStateSwap: build,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fol.Store(f)
	build(f.Store())
	fts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer fts.Close()

	// Writes to the follower answer 503, naming the leader.
	obj := ObjectJSON{ID: 920_001, BoxJSON: BoxToJSON(geom.BoxAt(geom.Point{30, 30, 30}, 2))}
	body, err := json.Marshal(InsertRequest{Objects: []ObjectJSON{obj}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(fts.URL+"/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" ||
		resp.Header.Get("X-Quasii-Leader") != lts.URL {
		t.Fatalf("follower /insert: %d, Retry-After %q, X-Quasii-Leader %q; want 503, set, %q",
			resp.StatusCode, resp.Header.Get("Retry-After"), resp.Header.Get("X-Quasii-Leader"), lts.URL)
	}
	if st := call(t, client, http.MethodGet, fts.URL+"/healthz", nil, &health); st != http.StatusOK || health.Role != "follower" {
		t.Fatalf("follower /healthz: %d, role %q", st, health.Role)
	}

	// The leader declares the follower's resume point gone: the follower
	// re-bootstraps, and /readyz answers 503 "replicating" until the held
	// snapshot arrives.
	gate.armed.Store(true)
	var ready ReadyResponse
	waitFor(t, "follower /readyz to report replicating", func() bool {
		ready = ReadyResponse{}
		st := call(t, client, http.MethodGet, fts.URL+"/readyz", nil, &ready)
		return st == http.StatusServiceUnavailable && ready.Status == "replicating"
	})
	if ready.Ready || ready.Repl == nil || ready.Repl.Bootstrapped {
		t.Fatalf("replicating /readyz body: %+v", ready)
	}

	// Writes land on the leader meanwhile; once released, the follower
	// catches up and reports ready.
	if err := leaderStore.Insert(obj.Object()); err != nil {
		t.Fatal(err)
	}
	gate.armed.Store(false)
	release()
	waitFor(t, "the follower to catch up", func() bool {
		st := f.Store()
		return st != nil && st.NextSeq() == leaderStore.NextSeq()
	})
	waitFor(t, "follower /readyz to answer 200", func() bool {
		ready = ReadyResponse{}
		return call(t, client, http.MethodGet, fts.URL+"/readyz", nil, &ready) == http.StatusOK
	})
	if ready.Status != "ready" || ready.Repl == nil || !ready.Repl.Bootstrapped || ready.Repl.LeaderURL != lts.URL {
		t.Fatalf("caught-up /readyz body: %+v", ready)
	}
	var qr QueryResponse
	if st := call(t, client, http.MethodPost, fts.URL+"/query", QueryRequest{BoxJSON: obj.BoxJSON}, &qr); st != http.StatusOK || qr.Count != 1 {
		t.Fatalf("follower /query for the leader's write: %d, IDs %v", st, qr.IDs)
	}

	// Promotion makes the follower a writable leader.
	var pr PromoteResponse
	if st := call(t, client, http.MethodPost, fts.URL+repl.PathPromote, nil, &pr); st != http.StatusOK || pr.Role != "leader" {
		t.Fatalf("POST /repl/promote: %d, %+v", st, pr)
	}
	mine := ObjectJSON{ID: 920_002, BoxJSON: BoxToJSON(geom.BoxAt(geom.Point{60, 60, 60}, 2))}
	var ir InsertResponse
	if st := call(t, client, http.MethodPost, fts.URL+"/insert", InsertRequest{Objects: []ObjectJSON{mine}}, &ir); st != http.StatusOK || ir.Inserted != 1 {
		t.Fatalf("promoted /insert: %d, %+v", st, ir)
	}
	if st := call(t, client, http.MethodPost, fts.URL+"/query", QueryRequest{BoxJSON: mine.BoxJSON}, &qr); st != http.StatusOK || qr.Count != 1 {
		t.Fatalf("promoted /query for its own write: %d, IDs %v", st, qr.IDs)
	}
	if st := call(t, client, http.MethodGet, fts.URL+"/healthz", nil, &health); st != http.StatusOK || health.Role != "leader" {
		t.Fatalf("promoted /healthz: %d, role %q", st, health.Role)
	}
	var stats StatsResponse
	if st := call(t, client, http.MethodGet, fts.URL+"/stats", nil, &stats); st != http.StatusOK ||
		stats.Role != "leader" || stats.Repl == nil || !stats.Repl.Writable || !stats.Durability.Enabled {
		t.Fatalf("promoted /stats: %d, role %q, repl %+v, durability %+v", st, stats.Role, stats.Repl, stats.Durability)
	}
}

// waitFor polls cond every 5 ms for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
