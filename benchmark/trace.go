package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index of
// the span that caused it (-1 for a root) and Req the request it belongs to,
// so the spans of one request share an identifier. Times are nanoseconds
// since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
}

// tracer keeps spans in memory until the run ends. The traced twins drive
// one request at a time, so the open spans form a single stack and a new
// span's parent is whatever is on top of it; the mutex only orders the
// occasional helper goroutine (the server's batcher executes a query on its
// own goroutine while the handler span is open). A nil *tracer records
// nothing, which is how the untraced side of the overhead ratio runs the
// same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int32
	req   int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// beginRequest opens the root span of a new request: spans begun until it
// ends carry the next request id.
func (t *tracer) beginRequest(name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.req++
	t.mu.Unlock()
	return t.begin(name)
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: t.req})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return id
}

// end closes the span begin returned. Spans close innermost first.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover. Children are clipped to the parent and
// overlapping siblings are counted once.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	kids := make(map[int32][]int32)
	for i, s := range spans {
		self[i] = s.End - s.Start
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	for p, ks := range kids {
		// Children are appended in start order (one stack, one clock).
		covered, edge := int64(0), spans[p].Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > spans[p].End {
				hi = spans[p].End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p] -= covered
	}
	return self
}

// layerTime collects the spans of one name: how many, and each one's
// duration and self time.
type layerTime struct {
	Count  int
	totals []int64
	selfs  []int64
}

func layerTimes(spans []span) map[string]*layerTime {
	self := selfTimes(spans)
	out := make(map[string]*layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.Count++
		lt.totals = append(lt.totals, s.End-s.Start)
		lt.selfs = append(lt.selfs, self[i])
	}
	return out
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
