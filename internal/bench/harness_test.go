package bench

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestProbes: call reports status and headers and decodes only a 200;
// answers turns a status into a poll condition; poll retries until the
// condition holds and gives up at its deadline.
func TestProbes(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		var in map[string]int
		json.NewDecoder(r.Body).Decode(&in)
		w.Header().Set("X-Seen", "yes")
		json.NewEncoder(w).Encode(map[string]int{"got": in["n"]})
	}))
	client := ts.Client()

	if !poll(time.Second, time.Millisecond, answers(client, ts.URL, http.StatusOK)) {
		t.Fatal("poll gave up on a server that turns healthy after 3 hits")
	}
	var out map[string]int
	code, h := call(client, http.MethodPost, ts.URL, map[string]int{"n": 7}, &out)
	if code != http.StatusOK || h.Get("X-Seen") != "yes" || out["got"] != 7 {
		t.Fatalf("call = %d, header %q, decoded %v", code, h.Get("X-Seen"), out)
	}

	ts.Close()
	if code, _ := call(client, http.MethodGet, ts.URL, nil, nil); code != 0 {
		t.Fatalf("call on a closed server = %d, want 0", code)
	}
	t0 := time.Now()
	if poll(20*time.Millisecond, time.Millisecond, answers(client, ts.URL, http.StatusOK)) {
		t.Fatal("poll held on a closed server")
	}
	if time.Since(t0) > time.Second {
		t.Fatal("poll overran its deadline")
	}
}
