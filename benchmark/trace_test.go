package main

import (
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// 0: request [0,100]
	//   1: handler [10,90]
	//     2: durable [20,70]
	//       3: fs.write [25,30]
	//       4: fs.sync  [30,65]
	//     5: encode [75,85]   (sibling of durable)
	// 6: another root [200,250]
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1, Req: 1},
		{Name: "handler", Start: 10, End: 90, Parent: 0, Req: 1},
		{Name: "durable", Start: 20, End: 70, Parent: 1, Req: 1},
		{Name: "fs.write", Start: 25, End: 30, Parent: 2, Req: 1},
		{Name: "fs.sync", Start: 30, End: 65, Parent: 2, Req: 1},
		{Name: "encode", Start: 75, End: 85, Parent: 1, Req: 1},
		{Name: "op", Start: 200, End: 250, Parent: -1, Req: 2},
	}
	want := []int64{
		100 - 80,     // op: minus handler
		80 - 50 - 10, // handler: minus durable and encode (siblings)
		50 - 5 - 35,  // durable: minus its two fs children, not its grandparent's
		5, 35, 10, 50,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSelfTimesClipsAndMergesChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 60, Parent: 0},
		{Name: "b", Start: 40, End: 80, Parent: 0},  // overlaps a: [10,80] is covered once
		{Name: "c", Start: 90, End: 130, Parent: 0}, // runs past the parent: clipped to [90,100]
		{Name: "d", Start: 95, End: 99, Parent: 0},  // inside c's cover already
	}
	if got := selfTimes(spans)[0]; got != 100-70-10 {
		t.Errorf("parent self time = %d, want 20", got)
	}
}

func TestTracerNestsAndNumbersRequests(t *testing.T) {
	tr := newTracer()
	a := tr.beginRequest("op")
	b := tr.begin("handler")
	c := tr.begin("fs.sync")
	tr.end(c)
	tr.end(b)
	tr.end(a)
	d := tr.beginRequest("op")
	tr.end(d)
	if len(tr.spans) != 4 {
		t.Fatalf("%d spans", len(tr.spans))
	}
	parents := []int32{-1, 0, 1, -1}
	reqs := []int32{1, 1, 1, 2}
	for i, s := range tr.spans {
		if s.Parent != parents[i] || s.Req != reqs[i] || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d req %d", i, s, parents[i], reqs[i])
		}
	}
	lt := layerTimes(tr.spans)
	if lt["op"].Count != 2 || lt["fs.sync"].Count != 1 || len(lt["handler"].selfs) != 1 {
		t.Errorf("layerTimes = %+v", lt)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x"))
	tr.end(tr.beginRequest("y"))
	if err := tr.write("/nonexistent/never-written"); err != nil {
		t.Error(err)
	}
}
