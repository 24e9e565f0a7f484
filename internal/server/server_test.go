package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/scan"
	"repro/internal/shard"
	"repro/internal/workload"
)

// newTestServer builds a sharded index over data and mounts the service on
// an httptest server.
func newTestServer(t *testing.T, data []geom.Object, cfg Config) (*httptest.Server, *shard.Index) {
	t.Helper()
	ix := shard.New(data, shard.Config{Shards: 4})
	s := New(ix, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, ix
}

// call POSTs (or GETs, when body is nil) and decodes the JSON answer into
// out, returning the HTTP status.
func call(t *testing.T, client *http.Client, method, url string, body, out interface{}) int {
	t.Helper()
	var reader io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		reader = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && resp.StatusCode < 400 {
			t.Fatalf("%s %s: decoding %d response: %v", method, url, resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

func sorted(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// writeBase is the first ID used for test-inserted objects; every dataset
// ID stays below it, so responses split cleanly into base and write IDs.
const writeBase int32 = 1 << 24

// TestEndToEndMixedWorkload replays a mixed read/write workload from
// concurrent clients and checks every response against a Scan oracle. The
// base dataset is immutable; each client owns a private ID range for its
// inserts/deletes, so for every query result the base-ID part must exactly
// match the oracle, the own-ID part must exactly match the client's live
// set, and foreign in-flight IDs are ignored. Run with -race.
func TestEndToEndMixedWorkload(t *testing.T) {
	data := dataset.Uniform(5000, 91)
	ts, _ := newTestServer(t, data, Config{
		BatchWindow: 500 * time.Microsecond,
		FlushEvery:  64,
	})
	oracle := scan.New(data)

	const clients = 8
	const rounds = 40
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			base := writeBase + int32(c)*100000
			owned := make(map[int32]geom.Object) // my live inserted objects
			queries := workload.Uniform(dataset.Universe(), rounds, 1e-3, int64(300+c))
			inserts := dataset.Uniform(rounds, int64(400+c))

			checkQuery := func(q geom.Box, ids []int32) bool {
				var gotBase, gotOwn []int32
				for _, id := range ids {
					switch {
					case id < writeBase:
						gotBase = append(gotBase, id)
					case id >= base && id < base+100000:
						gotOwn = append(gotOwn, id)
					}
				}
				var wantOwn []int32
				for id, o := range owned {
					if o.Intersects(q) {
						wantOwn = append(wantOwn, id)
					}
				}
				wantBase := oracle.Query(q, nil)
				if !equal(sorted(gotBase), sorted(wantBase)) {
					errs <- fmt.Sprintf("client %d: base IDs: got %d want %d", c, len(gotBase), len(wantBase))
					return false
				}
				if !equal(sorted(gotOwn), sorted(wantOwn)) {
					errs <- fmt.Sprintf("client %d: own IDs: got %v want %v", c, gotOwn, wantOwn)
					return false
				}
				return true
			}

			for r := 0; r < rounds; r++ {
				// Range query with full oracle check.
				var qresp QueryResponse
				status := call(t, client, http.MethodPost, ts.URL+"/query",
					QueryRequest{BoxToJSON(queries[r])}, &qresp)
				if status != http.StatusOK {
					errs <- fmt.Sprintf("client %d: /query status %d", c, status)
					return
				}
				if !checkQuery(queries[r], qresp.IDs) {
					return
				}

				// Insert an object, then read-your-write on its box.
				o := inserts[r]
				o.ID = base + int32(r)
				var iresp InsertResponse
				status = call(t, client, http.MethodPost, ts.URL+"/insert",
					InsertRequest{Objects: []ObjectJSON{{ID: o.ID, BoxJSON: BoxToJSON(o.Box)}}}, &iresp)
				if status != http.StatusOK || iresp.Inserted != 1 {
					errs <- fmt.Sprintf("client %d: /insert status %d resp %+v", c, status, iresp)
					return
				}
				owned[o.ID] = o
				status = call(t, client, http.MethodPost, ts.URL+"/query",
					QueryRequest{BoxToJSON(o.Box)}, &qresp)
				if status != http.StatusOK {
					errs <- fmt.Sprintf("client %d: /query status %d", c, status)
					return
				}
				if !checkQuery(o.Box, qresp.IDs) {
					return
				}

				// Delete every third inserted object and verify it is gone.
				if r%3 == 0 {
					var dresp DeleteResponse
					status = call(t, client, http.MethodPost, ts.URL+"/delete",
						DeleteRequest{ID: o.ID, Hint: BoxToJSON(o.Box)}, &dresp)
					if status != http.StatusOK || !dresp.Deleted {
						errs <- fmt.Sprintf("client %d: /delete status %d resp %+v", c, status, dresp)
						return
					}
					delete(owned, o.ID)
					status = call(t, client, http.MethodPost, ts.URL+"/query",
						QueryRequest{BoxToJSON(o.Box)}, &qresp)
					if status != http.StatusOK {
						errs <- fmt.Sprintf("client %d: /query status %d", c, status)
						return
					}
					if !checkQuery(o.Box, qresp.IDs) {
						return
					}
				}

				// Periodic batch request with the same oracle.
				if r%10 == 5 {
					batchQ := workload.Uniform(dataset.Universe(), 8, 1e-3, int64(500+c*100+r))
					breq := BatchRequest{}
					for _, q := range batchQ {
						breq.Queries = append(breq.Queries, BoxToJSON(q))
					}
					var bresp BatchResponse
					status = call(t, client, http.MethodPost, ts.URL+"/batch", breq, &bresp)
					if status != http.StatusOK || len(bresp.Results) != len(batchQ) {
						errs <- fmt.Sprintf("client %d: /batch status %d, %d results", c, status, len(bresp.Results))
						return
					}
					for qi, ids := range bresp.Results {
						if !checkQuery(batchQ[qi], ids) {
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// The server must have coalesced at least some queries and auto-flushed.
	var st StatsResponse
	if status := call(t, http.DefaultClient, http.MethodGet, ts.URL+"/stats", nil, &st); status != http.StatusOK {
		t.Fatalf("/stats status %d", status)
	}
	if st.Batcher.Batches == 0 || st.Batcher.BatchedQueries < st.Batcher.Batches {
		t.Errorf("batcher stats implausible: %+v", st.Batcher)
	}
	if st.Index.Pending >= 5000 {
		t.Errorf("auto-flush never ran: %d pending", st.Index.Pending)
	}
	if st.Endpoints["query"].Count == 0 || st.Endpoints["insert"].Count == 0 {
		t.Errorf("endpoint metrics missing: %+v", st.Endpoints)
	}
}

// TestKNNEndpoint checks /knn against brute force over the dataset.
func TestKNNEndpoint(t *testing.T) {
	data := dataset.Uniform(2000, 95)
	ts, _ := newTestServer(t, data, Config{})
	for _, p := range []geom.Point{{100, 200, 300}, {9000, 9000, 9000}} {
		var resp KNNResponse
		status := call(t, http.DefaultClient, http.MethodPost, ts.URL+"/knn",
			KNNRequest{Point: p, K: 10}, &resp)
		if status != http.StatusOK {
			t.Fatalf("/knn status %d", status)
		}
		if len(resp.Neighbors) != 10 {
			t.Fatalf("got %d neighbors, want 10", len(resp.Neighbors))
		}
		// Brute-force oracle.
		type cand struct {
			id int32
			d  float64
		}
		cands := make([]cand, len(data))
		for i := range data {
			cands[i] = cand{data[i].ID, data[i].MinDistSq(p)}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].d != cands[j].d {
				return cands[i].d < cands[j].d
			}
			return cands[i].id < cands[j].id
		})
		for i, n := range resp.Neighbors {
			if n.ID != cands[i].id || n.DistSq != cands[i].d {
				t.Fatalf("neighbor %d = %+v, want {%d %g}", i, n, cands[i].id, cands[i].d)
			}
		}
	}
}

// TestBackpressure verifies overload turns into immediate 429s: with an
// admission budget of 1 and a long batching window, a burst of concurrent
// queries must see rejections, and every accepted answer must be correct.
func TestBackpressure(t *testing.T) {
	data := dataset.Uniform(1000, 97)
	ts, _ := newTestServer(t, data, Config{
		BatchWindow: 50 * time.Millisecond,
		MaxInFlight: 1,
	})
	oracle := scan.New(data)
	q := workload.Uniform(dataset.Universe(), 1, 1e-2, 5)[0]
	want := sorted(oracle.Query(q, nil))

	const burst = 30
	var ok, rejected int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp QueryResponse
			status := call(t, &http.Client{}, http.MethodPost, ts.URL+"/query",
				QueryRequest{BoxToJSON(q)}, &resp)
			mu.Lock()
			defer mu.Unlock()
			switch status {
			case http.StatusOK:
				ok++
				if !equal(sorted(resp.IDs), want) {
					t.Errorf("accepted query answered wrong: %d IDs, want %d", len(resp.IDs), len(want))
				}
			case http.StatusTooManyRequests:
				rejected++
			default:
				t.Errorf("unexpected status %d", status)
			}
		}()
	}
	wg.Wait()
	if ok == 0 {
		t.Error("no query was accepted")
	}
	if rejected == 0 {
		t.Error("no query was rejected despite MaxInFlight=1")
	}
	var st StatsResponse
	call(t, http.DefaultClient, http.MethodGet, ts.URL+"/stats", nil, &st)
	if st.Admission.Rejected != rejected {
		t.Errorf("admission.rejected = %d, want %d", st.Admission.Rejected, rejected)
	}
	if st.Endpoints["query"].Rejected != rejected {
		t.Errorf("endpoint rejected = %d, want %d", st.Endpoints["query"].Rejected, rejected)
	}
}

// TestValidationAndMethods checks the 4xx paths.
func TestValidationAndMethods(t *testing.T) {
	data := dataset.Uniform(200, 99)
	ts, _ := newTestServer(t, data, Config{BatchWindow: -1})
	cl := http.DefaultClient

	// Inverted box.
	if s := call(t, cl, http.MethodPost, ts.URL+"/query",
		QueryRequest{BoxJSON{Min: [3]float64{5, 0, 0}, Max: [3]float64{1, 1, 1}}}, nil); s != http.StatusBadRequest {
		t.Errorf("inverted box: status %d, want 400", s)
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	// Bad k.
	if s := call(t, cl, http.MethodPost, ts.URL+"/knn", KNNRequest{K: 0}, nil); s != http.StatusBadRequest {
		t.Errorf("k=0: status %d, want 400", s)
	}
	// Request limits: k, queries per /batch, objects per /insert, body size.
	if s := call(t, cl, http.MethodPost, ts.URL+"/knn", KNNRequest{K: maxK + 1}, nil); s != http.StatusBadRequest {
		t.Errorf("k=%d: status %d, want 400", maxK+1, s)
	}
	box := BoxToJSON(data[0].Box)
	if s := call(t, cl, http.MethodPost, ts.URL+"/batch",
		BatchRequest{Queries: make([]BoxJSON, maxBatch+1)}, nil); s != http.StatusBadRequest {
		t.Errorf("batch of %d: status %d, want 400", maxBatch+1, s)
	}
	objs := make([]ObjectJSON, maxBatch+1)
	for i := range objs {
		objs[i] = ObjectJSON{ID: int32(800_000 + i), BoxJSON: box}
	}
	if s := call(t, cl, http.MethodPost, ts.URL+"/insert", InsertRequest{Objects: objs}, nil); s != http.StatusBadRequest {
		t.Errorf("insert of %d: status %d, want 400", maxBatch+1, s)
	}
	pad := bytes.Repeat([]byte("x"), maxBodyBytes)
	resp, err = http.Post(ts.URL+"/query", "application/json",
		bytes.NewReader([]byte(`{"min":[0,0,0],"max":[1,1,1],"pad":"`+string(pad)+`"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("body over %d bytes: status %d, want 400", maxBodyBytes, resp.StatusCode)
	}
	// Wrong method.
	if s := call(t, cl, http.MethodDelete, ts.URL+"/query", nil, nil); s != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /query: status %d, want 405", s)
	}
	if s := call(t, cl, http.MethodPost, ts.URL+"/stats", struct{}{}, nil); s != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats: status %d, want 405", s)
	}
	// Empty insert.
	if s := call(t, cl, http.MethodPost, ts.URL+"/insert", InsertRequest{}, nil); s != http.StatusBadRequest {
		t.Errorf("empty insert: status %d, want 400", s)
	}

	// GET /query with curl-style params works and matches the oracle.
	oracle := scan.New(data)
	u := geom.MBB(data)
	var qresp QueryResponse
	url := fmt.Sprintf("%s/query?min=%g,%g,%g&max=%g,%g,%g", ts.URL,
		u.Min[0], u.Min[1], u.Min[2], u.Max[0], u.Max[1], u.Max[2])
	if s := call(t, cl, http.MethodGet, url, nil, &qresp); s != http.StatusOK {
		t.Fatalf("GET /query: status %d", s)
	}
	if want := sorted(oracle.Query(u, nil)); !equal(sorted(qresp.IDs), want) {
		t.Errorf("GET /query: got %d IDs, want %d", len(qresp.IDs), len(want))
	}
	// Bad params.
	if s := call(t, cl, http.MethodGet, ts.URL+"/query?min=1,2&max=3,4,5", nil, nil); s != http.StatusBadRequest {
		t.Errorf("short min: status %d, want 400", s)
	}
}

// TestHealthz checks the liveness endpoint.
func TestHealthz(t *testing.T) {
	data := dataset.Uniform(300, 101)
	ts, ix := newTestServer(t, data, Config{})
	var h HealthResponse
	if s := call(t, http.DefaultClient, http.MethodGet, ts.URL+"/healthz", nil, &h); s != http.StatusOK {
		t.Fatalf("/healthz status %d", s)
	}
	if h.Status != "ok" || h.Objects != len(data) || h.Shards != ix.NumShards() {
		t.Errorf("healthz = %+v", h)
	}
}

// TestBatchLimitFiresEarly: a full batch must not wait out its window.
func TestBatchLimitFiresEarly(t *testing.T) {
	data := dataset.Uniform(500, 103)
	ts, _ := newTestServer(t, data, Config{
		BatchWindow: 10 * time.Second, // would time the test out if waited
		BatchLimit:  4,
	})
	q := workload.Uniform(dataset.Universe(), 1, 1e-2, 7)[0]
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			call(t, &http.Client{}, http.MethodPost, ts.URL+"/query", QueryRequest{BoxToJSON(q)}, nil)
		}()
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("full batch did not fire before its window")
	}
}
