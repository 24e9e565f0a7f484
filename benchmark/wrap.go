package main

import (
	"io/fs"
	"sync/atomic"

	"repro/internal/durable"
	"repro/internal/faultfs"
	"repro/internal/geom"
)

// The two seams where the benchmark sits inside the stack rather than
// around it. Both are pass-through: same bytes on disk, same errors, only a
// span opened and closed around each call (and, for the file system, a few
// counters). Everywhere else layers are timed from outside.

// timingFS is a faultfs.FS that records a span per write and per fsync and
// counts what reaches the disk. Passed as durable.Options.FS (and to
// wal.CreateFS) it makes the WAL's and the snapshot writer's file traffic
// children of whatever request caused it.
type timingFS struct {
	under faultfs.FS
	tr    *tracer

	writes atomic.Int64 // Write calls
	bytes  atomic.Int64 // bytes those writes put down
	syncs  atomic.Int64 // file and directory fsyncs
}

func newTimingFS(tr *tracer) *timingFS { return &timingFS{under: faultfs.OS{}, tr: tr} }

type timingFile struct {
	faultfs.File
	fs *timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	id := f.fs.tr.begin("fs.write")
	n, err := f.File.Write(p)
	f.fs.tr.end(id)
	f.fs.writes.Add(1)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	id := f.fs.tr.begin("fs.sync")
	err := f.File.Sync()
	f.fs.tr.end(id)
	f.fs.syncs.Add(1)
	return err
}

func (t *timingFS) wrap(f faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t}, nil
}

func (t *timingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	return t.wrap(t.under.OpenFile(name, flag, perm))
}
func (t *timingFS) Create(name string) (faultfs.File, error) { return t.wrap(t.under.Create(name)) }
func (t *timingFS) ReadFile(name string) ([]byte, error)     { return t.under.ReadFile(name) }
func (t *timingFS) Rename(oldpath, newpath string) error     { return t.under.Rename(oldpath, newpath) }
func (t *timingFS) Remove(name string) error                 { return t.under.Remove(name) }
func (t *timingFS) RemoveAll(path string) error              { return t.under.RemoveAll(path) }
func (t *timingFS) MkdirAll(path string, perm fs.FileMode) error {
	return t.under.MkdirAll(path, perm)
}

func (t *timingFS) SyncDir(dir string) error {
	id := t.tr.begin("fs.sync")
	err := t.under.SyncDir(dir)
	t.tr.end(id)
	t.syncs.Add(1)
	return err
}

// tracedStore implements server.Config.Durability around a durable.Store,
// so that the store's share of a write request is a span of its own between
// the handler's and the file system's.
type tracedStore struct {
	store *durable.Store
	tr    *tracer
}

func (d *tracedStore) Insert(objs ...geom.Object) error {
	id := d.tr.begin("durable.insert")
	err := d.store.Insert(objs...)
	d.tr.end(id)
	return err
}

func (d *tracedStore) Delete(id int32, hint geom.Box) (bool, error) {
	sp := d.tr.begin("durable.delete")
	found, err := d.store.Delete(id, hint)
	d.tr.end(sp)
	return found, err
}

func (d *tracedStore) Checkpoint() (uint64, error) {
	id := d.tr.begin("durable.checkpoint")
	seq, err := d.store.Checkpoint()
	d.tr.end(id)
	return seq, err
}
