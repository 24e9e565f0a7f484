package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/faultfs"
	"repro/internal/geom"
	"repro/internal/shard"
	"repro/internal/wal"
)

// The timing file system must be invisible to the code above it: the same
// bytes reach the disk and the same errors come back.
func TestTimingFSIsPassThrough(t *testing.T) {
	in, err := newInputs(smokeSpec(t, "serve_mixed"), 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(fsys faultfs.FS, name string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		log, err := wal.CreateFS(fsys, path, wal.SyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			o := in.writeObject(i)
			if err := log.AppendInsert([]geom.Object{o}); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				if err := log.AppendDelete(o.ID, o.Box); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	tr := newTracer()
	tfs := newTimingFS(tr)
	plain, timed := write(faultfs.OS{}, "plain.wal"), write(tfs, "timed.wal")
	if !bytes.Equal(plain, timed) {
		t.Errorf("WAL through timingFS differs: %d vs %d bytes", len(timed), len(plain))
	}
	if tfs.bytes.Load() != int64(len(timed)) || tfs.writes.Load() == 0 || tfs.syncs.Load() == 0 {
		t.Errorf("counters: %d bytes (file has %d), %d writes, %d syncs", tfs.bytes.Load(), len(timed), tfs.writes.Load(), tfs.syncs.Load())
	}
	lt := layerTimes(tr.spans)
	if lt["fs.write"].Count != int(tfs.writes.Load()) || lt["fs.sync"].Count != int(tfs.syncs.Load()) {
		t.Errorf("spans %d/%d do not match counters %d/%d", lt["fs.write"].Count, lt["fs.sync"].Count, tfs.writes.Load(), tfs.syncs.Load())
	}

	// Errors pass through unchanged.
	missing := filepath.Join(dir, "no", "such", "file")
	_, e1 := faultfs.OS{}.OpenFile(missing, os.O_RDONLY, 0)
	_, e2 := tfs.OpenFile(missing, os.O_RDONLY, 0)
	if e1 == nil || e2 == nil || e1.Error() != e2.Error() || !errors.Is(e2, fs.ErrNotExist) {
		t.Errorf("OpenFile errors differ: %v vs %v", e1, e2)
	}
	if _, err := tfs.ReadFile(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("ReadFile error = %v", err)
	}
	if e1, e2 := (faultfs.OS{}).Rename(missing, missing+"x"), tfs.Rename(missing, missing+"x"); e1.Error() != e2.Error() {
		t.Errorf("Rename errors differ: %v vs %v", e1, e2)
	}
	f, err := tfs.Create(filepath.Join(dir, "closed"))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.Write([]byte("x")); !errors.Is(err, os.ErrClosed) {
		t.Errorf("write on a closed file = %v", err)
	}
	if err := f.Sync(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("sync on a closed file = %v", err)
	}
}

// tracedStore must answer exactly as the store it wraps.
func TestTracedStoreIsPassThrough(t *testing.T) {
	in, err := newInputs(smokeSpec(t, "serve_mixed"), 1)
	if err != nil {
		t.Fatal(err)
	}
	open := func(dir string) *durable.Store {
		t.Helper()
		st, err := durable.Open(dir, durable.Options{
			Shard:     shard.Config{Shards: 2},
			Bootstrap: in.generate,
			Fsync:     durable.FsyncNever,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	direct, wrapped := open(t.TempDir()), open(t.TempDir())
	tr := newTracer()
	ts := &tracedStore{store: wrapped, tr: tr}

	for i := 0; i < 20; i++ {
		o := in.writeObject(i)
		if e1, e2 := direct.Insert(o), ts.Insert(o); e1 != nil || e2 != nil {
			t.Fatalf("insert %d: %v / %v", i, e1, e2)
		}
	}
	for _, i := range []int{3, 3, 7, 99} { // live, already deleted, live, never inserted
		o := in.writeObject(i)
		f1, e1 := direct.Delete(o.ID, o.Box)
		f2, e2 := ts.Delete(o.ID, o.Box)
		if f1 != f2 || e1 != nil || e2 != nil {
			t.Errorf("delete of %d: direct (%v,%v), wrapped (%v,%v)", i, f1, e1, f2, e2)
		}
	}
	q := geom.UniverseBox()
	if a, b := digest(direct.Index().Query(q, nil), 1<<30), digest(wrapped.Index().Query(q, nil), 1<<30); a != b {
		t.Errorf("indexes diverged: %+v vs %+v", a, b)
	}
	s1, e1 := direct.Checkpoint()
	s2, e2 := ts.Checkpoint()
	if s1 != s2 || e1 != nil || e2 != nil {
		t.Errorf("checkpoint: direct (%d,%v), wrapped (%d,%v)", s1, e1, s2, e2)
	}
	lt := layerTimes(tr.spans)
	if lt["durable.insert"].Count != 20 || lt["durable.delete"].Count != 4 || lt["durable.checkpoint"].Count != 1 {
		t.Errorf("spans: %d inserts, %d deletes, %d checkpoints", lt["durable.insert"].Count, lt["durable.delete"].Count, lt["durable.checkpoint"].Count)
	}

	// Errors pass through: a closed store refuses with its own error.
	if err := direct.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wrapped.Close(); err != nil {
		t.Fatal(err)
	}
	o := in.writeObject(50)
	if err := ts.Insert(o); !errors.Is(err, durable.ErrClosed) {
		t.Errorf("insert on a closed store = %v", err)
	}
	if _, err := ts.Delete(o.ID, o.Box); !errors.Is(err, durable.ErrClosed) {
		t.Errorf("delete on a closed store = %v", err)
	}
	if _, err := ts.Checkpoint(); !errors.Is(err, durable.ErrClosed) {
		t.Errorf("checkpoint on a closed store = %v", err)
	}
}
