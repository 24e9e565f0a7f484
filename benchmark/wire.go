package main

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/geom"
	"repro/internal/telemetry"
)

// wireOps speaks the server's HTTP/JSON protocol for a target: it encodes
// requests, hands them to post, and reduces responses to IDs. Two targets
// share it — the separate quasii-serve process reached over a socket and
// the in-process handler the traced twin calls directly — so both sides of
// the socket/handler split run byte-identical requests.
//
// Request bodies of the query pool are encoded once, before any clock
// starts; responses are read by a scanner that extracts only the IDs, so
// the load generator — which shares the machine's cores with the server —
// spends as little as it can.
type wireOps struct {
	in        *inputs
	queryBody [][]byte // per pool query
	batchBody [][]byte // per whole batch of the pool
	clients   []*wireClient
	// post sends body to path for client c and leaves the response body in
	// c.buf; any status but 200 is an error.
	post func(c *wireClient, path string, body []byte) error
}

// wireClient is the per-client scratch space; one closed-loop client uses
// one of them at a time.
type wireClient struct {
	index int
	buf   bytes.Buffer // response body
	req   []byte       // write request under construction
	ids   []int32      // flat storage behind batch results
	rows  [][]int32
}

func newWireOps(in *inputs, clients int) wireOps {
	w := wireOps{in: in}
	for i := 0; i < clients; i++ {
		w.clients = append(w.clients, &wireClient{index: i})
	}
	w.queryBody = make([][]byte, len(in.pool))
	for i, q := range in.pool {
		w.queryBody[i] = appendBox(nil, q)
	}
	w.batchBody = make([][]byte, len(in.pool)/batchSize)
	for b := range w.batchBody {
		w.batchBody[b] = appendBatch(nil, in.pool[b*batchSize:(b+1)*batchSize])
	}
	return w
}

// appendBox appends {"min":[x,y,z],"max":[x,y,z]} with floats that parse
// back to exactly the same values.
func appendBox(b []byte, q geom.Box) []byte {
	b = append(b, `{"min":[`...)
	for d := 0; d < geom.Dims; d++ {
		if d > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, q.Min[d], 'g', -1, 64)
	}
	b = append(b, `],"max":[`...)
	for d := 0; d < geom.Dims; d++ {
		if d > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, q.Max[d], 'g', -1, 64)
	}
	return append(b, "]}"...)
}

func appendBatch(b []byte, boxes []geom.Box) []byte {
	b = append(b, `{"queries":[`...)
	for i, q := range boxes {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendBox(b, q)
	}
	return append(b, "]}"...)
}

func (w *wireOps) Query(client, qi int, out []int32) ([]int32, error) {
	c := w.clients[client]
	if err := w.post(c, "/query", w.queryBody[qi]); err != nil {
		return out, err
	}
	out, _, err := scanIDs(c.buf.Bytes(), out)
	return out, err
}

func (w *wireOps) Batch(client, first int) ([][]int32, error) {
	c := w.clients[client]
	if err := w.post(c, "/batch", w.batchBody[first/batchSize]); err != nil {
		return nil, err
	}
	var err error
	c.rows, c.ids, err = scanRows(c.buf.Bytes(), c.rows[:0], c.ids[:0])
	if err != nil {
		return nil, err
	}
	if len(c.rows) != batchSize {
		return nil, fmt.Errorf("/batch returned %d results for %d queries", len(c.rows), batchSize)
	}
	return c.rows, nil
}

func (w *wireOps) ReleaseBatch([][]int32) {}

func (w *wireOps) Insert(client int, o geom.Object) error {
	c := w.clients[client]
	// {"objects":[{"min":[..],"max":[..],"id":7}]}: the box's own closing
	// brace makes room for the id.
	b := appendBox(append(c.req[:0], `{"objects":[`...), o.Box)
	b = append(b[:len(b)-1], `,"id":`...)
	b = strconv.AppendInt(b, int64(o.ID), 10)
	c.req = append(b, "}]}"...)
	if err := w.post(c, "/insert", c.req); err != nil {
		return err
	}
	if !bytes.Contains(c.buf.Bytes(), []byte(`"inserted":1`)) {
		return fmt.Errorf("/insert acked %.100s", c.buf.Bytes())
	}
	return nil
}

func (w *wireOps) Delete(client int, o geom.Object) (bool, error) {
	c := w.clients[client]
	b := append(c.req[:0], `{"id":`...)
	b = strconv.AppendInt(b, int64(o.ID), 10)
	b = append(b, `,"hint":`...)
	b = appendBox(b, o.Box)
	c.req = append(b, '}')
	if err := w.post(c, "/delete", c.req); err != nil {
		return false, err
	}
	return bytes.Contains(c.buf.Bytes(), []byte(`"deleted":true`)), nil
}

// Probe asks for all the objects' boxes in one /batch, so the audit does not
// sit out a coalescing window per object.
func (w *wireOps) Probe(client int, objs []geom.Object) ([]bool, error) {
	c := w.clients[client]
	boxes := make([]geom.Box, len(objs))
	for i, o := range objs {
		boxes[i] = o.Box
	}
	if err := w.post(c, "/batch", appendBatch(nil, boxes)); err != nil {
		return nil, err
	}
	rows, _, err := scanRows(c.buf.Bytes(), nil, nil)
	if err != nil {
		return nil, err
	}
	if len(rows) != len(objs) {
		return nil, fmt.Errorf("/batch returned %d results for %d probes", len(rows), len(objs))
	}
	seen := make([]bool, len(objs))
	for i, o := range objs {
		seen[i] = contains(rows[i], o.ID)
	}
	return seen, nil
}

// scraped maps the diagnostics block's names onto /metrics series, so the
// ledger and production dashboards read the same numbers.
var scraped = map[string]string{
	"core.queries":             "quasii_core_queries_total",
	"core.shared_queries":      "quasii_core_shared_queries_total",
	"core.cracks":              "quasii_core_cracks_total",
	"core.cracked_objects":     "quasii_core_cracked_objects_total",
	"core.slices_created":      "quasii_core_slices_created_total",
	"core.objects_tested":      "quasii_core_objects_tested_total",
	"core.result_objects":      "quasii_core_result_objects_total",
	"core.crack_epochs":        "quasii_core_crack_epochs_total",
	"server.batches":           "quasii_server_batches_total",
	"server.batched_queries":   "quasii_server_batched_queries_total",
	"server.rejected":          "quasii_http_rejected_total",
	"server.http_requests":     "quasii_http_requests_total",
	"server.http_errors":       "quasii_http_errors_total",
	"durable.updates":          "quasii_store_updates_total",
	"durable.checkpoints":      "quasii_store_checkpoints_total",
	"durable.checkpoint_sum_s": "quasii_store_checkpoint_duration_seconds_sum",
	"durable.ckpt_pause_sum_s": "quasii_durable_checkpoint_pause_seconds_sum",
	"durable.ckpt_pause_count": "quasii_durable_checkpoint_pause_seconds_count",
	"wal.appends":              "quasii_wal_appends_total",
	"wal.appended_bytes":       "quasii_wal_appended_bytes_total",
	"wal.fsyncs":               "quasii_wal_fsyncs_total",
	"wal.fsync_sum_s":          "quasii_wal_fsync_duration_seconds_sum",
	"wal.append_sum_s":         "quasii_wal_append_duration_seconds_sum",
}

// countersFrom reads the scraped series out of a /metrics payload; series
// with labels (per-endpoint request counts) are summed.
func countersFrom(text string) (map[string]float64, error) {
	sc, err := telemetry.ParseText(text)
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	sums := make(map[string]float64)
	seen := make(map[string]bool)
	for _, s := range sc.Samples {
		sums[s.Name] += s.Value
		seen[s.Name] = true
	}
	out := make(map[string]float64)
	for name, series := range scraped {
		if seen[series] {
			out[name] = sums[series]
		}
	}
	return out, nil
}

// scanIDs appends the integers of the first JSON array in b to out and
// returns the offset just past the array's closing bracket. It accepts
// exactly what the server's encoder emits ([1,2,3], [] or null).
func scanIDs(b []byte, out []int32) ([]int32, int, error) {
	i := bytes.IndexAny(b, "[n")
	if i < 0 {
		return out, 0, fmt.Errorf("no array in response %.100s", b)
	}
	if b[i] == 'n' {
		return out, i + len("null"), nil
	}
	i++
	for i < len(b) {
		c := b[i]
		switch {
		case c == ']':
			return out, i + 1, nil
		case c == ',' || c == ' ':
			i++
		case c == '-' || (c >= '0' && c <= '9'):
			neg := c == '-'
			if neg {
				i++
			}
			var v int64
			for i < len(b) && b[i] >= '0' && b[i] <= '9' {
				v = v*10 + int64(b[i]-'0')
				i++
			}
			if neg {
				v = -v
			}
			out = append(out, int32(v))
		default:
			return out, i, fmt.Errorf("unexpected %q in id array", c)
		}
	}
	return out, i, fmt.Errorf("unterminated id array")
}

// scanRows parses {"results":[[..],[..],...]} into rows that alias one flat
// ids slice.
func scanRows(b []byte, rows [][]int32, ids []int32) ([][]int32, []int32, error) {
	i := bytes.IndexByte(b, '[')
	if i < 0 {
		return rows, ids, fmt.Errorf("no results array in response %.100s", b)
	}
	i++
	var ends []int
	for i < len(b) {
		switch b[i] {
		case ']':
			start := 0
			for _, e := range ends {
				rows = append(rows, ids[start:e:e])
				start = e
			}
			return rows, ids, nil
		case ',', ' ':
			i++
		default:
			var n int
			var err error
			ids, n, err = scanIDs(b[i:], ids)
			if err != nil {
				return rows, ids, err
			}
			i += n
			ends = append(ends, len(ids))
		}
	}
	return rows, ids, fmt.Errorf("unterminated results array")
}
