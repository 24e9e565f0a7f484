// Serving-layer failure modes: degraded-store writes answering 503 with
// Retry-After while reads and probes keep flowing, and request contexts
// (client disconnect, per-request deadline) cutting index work short.

package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/faultfs"
	"repro/internal/geom"
	"repro/internal/shard"
)

// TestDegradedStoreWritesShedReadsServe runs the server over a durable
// store whose disk fails every fsync: the store degrades to read-only, so
// writes answer 503 with Retry-After while queries and /readyz keep
// answering 200. Clearing the fault lets the store's recovery probe heal it,
// and writes succeed again.
func TestDegradedStoreWritesShedReadsServe(t *testing.T) {
	data := dataset.Uniform(2000, 71)
	ff := faultfs.New(nil, faultfs.Config{})
	store, err := durable.Open(t.TempDir(), durable.Options{
		Shard:        shard.Config{Shards: 4},
		Bootstrap:    func() []geom.Object { return data },
		Fsync:        durable.FsyncAlways,
		FS:           ff,
		RecoverEvery: 20 * time.Millisecond,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s := New(store.Index(), Config{Durability: store, BatchWindow: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// The disk starts failing every fsync.
	ff.SetRules([]*faultfs.Rule{{Kind: faultfs.KindErr, Op: faultfs.OpSync}})

	// Writes shed with 503 + Retry-After: the first one degrades the store,
	// the next fail fast.
	obj := ObjectJSON{ID: 900_001}
	obj.Min = [geom.Dims]float64{1, 1, 1}
	obj.Max = [geom.Dims]float64{2, 2, 2}
	for i := 0; i < 2; i++ {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/insert",
			strings.NewReader(`{"objects":[{"id":900001,"min":[1,1,1],"max":[2,2,2]}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("/insert %d while degraded: %d, want 503", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("/insert %d: 503 missing Retry-After", i)
		}
	}

	var del DeleteResponse
	if st := call(t, client, http.MethodPost, ts.URL+"/delete",
		DeleteRequest{ID: data[0].ID, Hint: BoxToJSON(data[0].Box)}, &del); st != http.StatusServiceUnavailable {
		t.Fatalf("/delete while degraded: %d, want 503", st)
	}
	snap, err := client.Post(ts.URL+"/snapshot", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	snap.Body.Close()
	if snap.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/snapshot while degraded: %d, want 503", snap.StatusCode)
	}
	if snap.Header.Get("Retry-After") == "" {
		t.Fatal("/snapshot: 503 missing Retry-After")
	}

	// Reads keep serving, and the failed insert is not among them.
	var qr QueryResponse
	q := QueryRequest{BoxJSON: BoxToJSON(geom.BoxAt(data[0].Center(), 1))}
	if st := call(t, client, http.MethodPost, ts.URL+"/query", q, &qr); st != http.StatusOK || qr.Count == 0 {
		t.Fatalf("/query while degraded: %d with %d IDs, want 200 with data[0]", st, qr.Count)
	}
	if st := call(t, client, http.MethodPost, ts.URL+"/query", QueryRequest{BoxJSON: obj.BoxJSON}, &qr); st != http.StatusOK || qr.Count != 0 {
		t.Fatalf("/query for the refused insert: %d with IDs %v, want 200 with none", st, qr.IDs)
	}

	// /readyz stays 200 (traffic should still route here) but says degraded.
	var ready ReadyResponse
	if st := call(t, client, http.MethodGet, ts.URL+"/readyz", nil, &ready); st != http.StatusOK {
		t.Fatalf("/readyz while degraded: %d, want 200", st)
	}
	if !ready.Degraded || ready.Status != "degraded" || ready.DegradedReason == "" {
		t.Fatalf("/readyz degraded report: %+v", ready)
	}

	// The disk heals; the store's recovery probe clears degraded mode.
	ff.SetRules(nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready = ReadyResponse{} // omitempty fields would otherwise keep stale values
		if st := call(t, client, http.MethodGet, ts.URL+"/readyz", nil, &ready); st != http.StatusOK {
			t.Fatalf("/readyz while healing: %d, want 200", st)
		}
		if !ready.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("store did not leave degraded mode after the fault cleared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ready.Status != "ready" {
		t.Fatalf("/readyz after heal: %+v", ready)
	}
	var ins InsertResponse
	if st := call(t, client, http.MethodPost, ts.URL+"/insert",
		InsertRequest{Objects: []ObjectJSON{obj}}, &ins); st != http.StatusOK {
		t.Fatalf("/insert after heal: %d, want 200", st)
	}
	if st := call(t, client, http.MethodPost, ts.URL+"/query", QueryRequest{BoxJSON: obj.BoxJSON}, &qr); st != http.StatusOK || qr.Count != 1 {
		t.Fatalf("/query after heal: %d with IDs %v, want the healed insert", st, qr.IDs)
	}
}

func TestCancelledRequestAnswers503(t *testing.T) {
	data := dataset.Uniform(1000, 72)
	ix := shard.New(data, shard.Config{Shards: 4})
	s := New(ix, Config{BatchWindow: -1})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := strings.NewReader(`{"queries":[{"min":[0,0,0],"max":[1,1,1]}]}`)
	req := httptest.NewRequest(http.MethodPost, "/batch", body).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled /batch: %d, want 503", rec.Code)
	}
	if s.mCancelled.Value() != 1 {
		t.Fatalf("quasii_http_cancelled_total = %d, want 1", s.mCancelled.Value())
	}

	// Updates observe cancellation before touching the WAL/index.
	req = httptest.NewRequest(http.MethodPost, "/insert",
		strings.NewReader(`{"objects":[{"id":900001,"min":[1,1,1],"max":[2,2,2]}]}`)).WithContext(ctx)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled /insert: %d, want 503", rec.Code)
	}
	if n := ix.Query(geom.BoxAt(geom.Point{1.5, 1.5, 1.5}, 0.1), nil); len(n) != 0 {
		t.Fatalf("cancelled insert reached the index: %v", n)
	}

	req = httptest.NewRequest(http.MethodPost, "/knn",
		strings.NewReader(`{"point":[0,0,0],"k":3}`)).WithContext(ctx)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled /knn: %d, want 503", rec.Code)
	}
}

func TestRequestTimeoutExpires(t *testing.T) {
	data := dataset.Uniform(1000, 73)
	ix := shard.New(data, shard.Config{Shards: 4})
	// A 1ns deadline has always expired by the time the fan-out checks it;
	// the coalescing window is disabled so /query takes the immediate path
	// where the context reaches the shard engine directly.
	s := New(ix, Config{BatchWindow: -1, RequestTimeout: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var qr QueryResponse
	st := call(t, ts.Client(), http.MethodPost, ts.URL+"/query",
		QueryRequest{BoxJSON: BoxToJSON(dataset.Universe())}, &qr)
	if st != http.StatusServiceUnavailable {
		t.Fatalf("/query past deadline: %d, want 503", st)
	}
	if s.mCancelled.Value() == 0 {
		t.Fatal("deadline expiry not counted in quasii_http_cancelled_total")
	}
}
