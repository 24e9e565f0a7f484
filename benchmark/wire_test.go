package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/server"
)

func TestScanIDsAndRows(t *testing.T) {
	ids, n, err := scanIDs([]byte(`{"ids":[12,-3,0,2147483647],"count":4}`), nil)
	if err != nil || !reflect.DeepEqual(ids, []int32{12, -3, 0, 2147483647}) || n != len(`{"ids":[12,-3,0,2147483647]`) {
		t.Errorf("scanIDs = %v, %d, %v", ids, n, err)
	}
	for _, empty := range []string{`{"ids":[],"count":0}`, `{"ids":null,"count":0}`} {
		if ids, _, err := scanIDs([]byte(empty), nil); err != nil || len(ids) != 0 {
			t.Errorf("scanIDs(%s) = %v, %v", empty, ids, err)
		}
	}
	rows, flat, err := scanRows([]byte(`{"results":[[1,2],[],null,[7]]}`+"\n"), nil, nil)
	want := [][]int32{{1, 2}, {}, {}, {7}}
	if err != nil || len(rows) != 4 || len(flat) != 3 {
		t.Fatalf("scanRows = %v, %v, %v", rows, flat, err)
	}
	for i := range want {
		if len(rows[i]) != len(want[i]) || (len(want[i]) > 0 && !reflect.DeepEqual(rows[i], want[i])) {
			t.Errorf("row %d = %v, want %v", i, rows[i], want[i])
		}
	}
	for _, bad := range []string{``, `{"ids":[1,2`, `{"ids":[1,x]}`, `{"results":[[1],[2]`} {
		if _, _, err := scanRows([]byte(bad), nil, nil); err == nil {
			if _, _, err := scanIDs([]byte(bad), nil); err == nil {
				t.Errorf("%q parsed without error", bad)
			}
		}
	}
}

// The hand-written request bodies must decode to what the server's own wire
// types hold, bit for bit.
func TestRequestBodiesDecodeExactly(t *testing.T) {
	in, err := newInputs(smokeSpec(t, "serve_read"), 4)
	if err != nil {
		t.Fatal(err)
	}
	var sent []byte
	w := newWireOps(in, 1)
	w.post = func(c *wireClient, path string, body []byte) error {
		sent = append(sent[:0], body...)
		c.buf.Reset()
		c.buf.WriteString(`{"inserted":1,"deleted":true,"results":[]}`)
		return nil
	}
	var qr server.QueryRequest
	if err := json.Unmarshal(w.queryBody[5], &qr); err != nil || qr.Box() != in.pool[5] {
		t.Errorf("query body %s decodes to %+v (%v), want %+v", w.queryBody[5], qr.Box(), err, in.pool[5])
	}
	var br server.BatchRequest
	if err := json.Unmarshal(w.batchBody[1], &br); err != nil || len(br.Queries) != batchSize || br.Queries[3].Box() != in.pool[batchSize+3] {
		t.Errorf("batch body decodes wrongly: %v", err)
	}
	o := in.writeObject(9)
	if err := w.Insert(0, o); err != nil {
		t.Fatal(err)
	}
	var ir server.InsertRequest
	if err := json.Unmarshal(sent, &ir); err != nil || len(ir.Objects) != 1 || ir.Objects[0].Object() != o {
		t.Errorf("insert body %s decodes to %+v (%v), want %+v", sent, ir.Objects, err, o)
	}
	if _, err := w.Delete(0, o); err != nil {
		t.Fatal(err)
	}
	var dr server.DeleteRequest
	if err := json.Unmarshal(sent, &dr); err != nil || dr.ID != o.ID || dr.Hint.Box() != o.Box {
		t.Errorf("delete body %s decodes to %+v (%v)", sent, dr, err)
	}
	_ = geom.Dims
}
