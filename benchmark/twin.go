package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/durable"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// handlerTarget is the in-process twin of httpTarget: the same server, built
// with the same settings as the quasii-serve command line, but entered at
// Handler().ServeHTTP with an in-memory response writer — everything the
// process-level workload crosses except the socket and net/http. The traced
// runs use it because here the benchmark owns two seams inside the stack
// (tracedStore and timingFS), so a write request decomposes into real
// nested spans: handler → durable → file system.
//
// One thing differs from the process on purpose: pending updates are folded
// in and checkpoints are taken by this target itself, between requests and
// at the server's own cadence, instead of by the server's detached
// goroutines. That keeps every span on one stack and makes the counts of a
// traced run repeat exactly.
type handlerTarget struct {
	wireOps
	dir string
	tr  *tracer

	fs      *timingFS
	store   *durable.Store // nil unless the workload is durable
	ix      *shard.Index
	reg     *telemetry.Registry
	handler http.Handler
	window  time.Duration // server.Config.BatchWindow; 0 = the 2 ms default
	writers []*memWriter
	updates int
}

func newHandlerTarget(in *inputs, dir string, clients int, tr *tracer) *handlerTarget {
	t := &handlerTarget{wireOps: newWireOps(in, clients), dir: dir, tr: tr}
	for i := 0; i < clients; i++ {
		t.writers = append(t.writers, &memWriter{hdr: make(http.Header)})
	}
	t.post = t.postHandler
	return t
}

// memWriter is the in-memory http.ResponseWriter.
type memWriter struct {
	hdr  http.Header
	code int
	body *bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

func (t *handlerTarget) postHandler(c *wireClient, path string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	w := t.writers[c.index]
	for k := range w.hdr {
		delete(w.hdr, k)
	}
	c.buf.Reset()
	w.code, w.body = http.StatusOK, &c.buf
	id := t.tr.begin("server.handler")
	t.handler.ServeHTTP(w, req)
	t.tr.end(id)
	if w.code != http.StatusOK {
		return fmt.Errorf("%s answered %d: %.200s", path, w.code, c.buf.Bytes())
	}
	return nil
}

func (t *handlerTarget) dataDir() string { return filepath.Join(t.dir, "twin-data") }

func (t *handlerTarget) shardConfig() shard.Config {
	return shard.Config{Shards: shardCount(t.in.spec)}
}

// open builds the index (restoring it when the data directory has state)
// and the server around it.
func (t *handlerTarget) open() error {
	t.reg = telemetry.NewRegistry()
	// quasii-serve's defaults where they differ from the zero Config; the
	// flush and checkpoint cadences are applied by wrote instead.
	cfg := server.Config{
		BatchWindow:      t.window,
		TraceSampleEvery: 64,
		SlowThreshold:    10 * time.Millisecond,
		Telemetry:        t.reg,
	}
	if t.in.spec.Durable {
		t.fs = newTimingFS(t.tr)
		store, err := durable.Open(t.dataDir(), durable.Options{
			Shard:     t.shardConfig(),
			Bootstrap: t.in.generate,
			Fsync:     durable.FsyncAlways,
			FS:        t.fs,
		})
		if err != nil {
			return fmt.Errorf("opening durable store: %w", err)
		}
		t.store, t.ix = store, store.Index()
		cfg.Durability = &tracedStore{store: store, tr: t.tr}
	} else {
		t.ix = shard.New(t.in.generate(), t.shardConfig())
	}
	t.handler = server.New(t.ix, cfg).Handler()
	if t.store != nil {
		t.store.Instrument(t.reg)
	}
	return nil
}

func (t *handlerTarget) Setup() error {
	if err := os.RemoveAll(t.dataDir()); err != nil {
		return err
	}
	t.updates = 0
	return t.open()
}

// wrote does the server's background work for n accepted updates, in root
// spans of its own.
func (t *handlerTarget) wrote(n int) error {
	flushAt, ckptAt := defaultFlushEvery, 0
	if t.in.spec.Durable {
		flushAt, ckptAt = mixedFlushEvery, mixedCheckpointEvery
	}
	before := t.updates
	t.updates += n
	if before/flushAt != t.updates/flushAt {
		id := t.tr.beginRequest("bg.flush")
		err := t.ix.Flush()
		t.tr.end(id)
		if err != nil {
			return err
		}
	}
	if ckptAt > 0 && before/ckptAt != t.updates/ckptAt {
		id := t.tr.beginRequest("bg.checkpoint")
		_, err := t.store.Checkpoint()
		t.tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *handlerTarget) Insert(client int, o geom.Object) error {
	if err := t.wireOps.Insert(client, o); err != nil {
		return err
	}
	return t.wrote(1)
}

func (t *handlerTarget) Delete(client int, o geom.Object) (bool, error) {
	found, err := t.wireOps.Delete(client, o)
	if err != nil || !found {
		return found, err
	}
	return true, t.wrote(1)
}

func (t *handlerTarget) Counters() (map[string]float64, error) {
	var sb strings.Builder
	if err := t.reg.WriteText(&sb); err != nil {
		return nil, err
	}
	return countersFrom(sb.String())
}

func (t *handlerTarget) Cracks() (uint64, error) { return cracksOf(t.Counters()) }

func (t *handlerTarget) Persist() error { return nil }

// Recover abandons the running state the way SIGKILL would — no Close, so
// no final checkpoint — and opens the directory again: snapshot restore
// plus WAL replay for a durable workload, a rebuild from the generator
// otherwise.
func (t *handlerTarget) Recover() error {
	t.store, t.ix, t.handler = nil, nil, nil
	return t.open()
}

func (t *handlerTarget) Durable() bool                { return t.in.spec.Durable }
func (t *handlerTarget) PeakRSSMiB() (float64, error) { return selfPeakRSSMiB() }

func (t *handlerTarget) Close() error {
	store := t.store
	t.store, t.ix, t.handler = nil, nil, nil
	if store != nil {
		return store.Close()
	}
	return nil
}
