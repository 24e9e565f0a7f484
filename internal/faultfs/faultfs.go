// Package faultfs is the deterministic fault-injection layer under the
// durable serving stack: a small file-system abstraction (FS, File) with a
// pass-through implementation over the os package and a fault-injecting
// wrapper that can fail, corrupt, tear, or "crash" any write-path operation
// the WAL and snapshot writers perform.
//
// The design goal is determinism: a FaultFS counts every mutating operation
// (write, fsync, create, rename, remove, truncate, directory sync) on a
// global step counter, and faults fire either at an exact step (crash
// points) or by seeded pseudo-random rules (chaos soaks). Running the same
// workload against the same configuration injects the same faults at the
// same sites, so a failing interleaving is a test case, not a flake.
//
// # Crash points
//
// Config.CrashStep trips the crash latch at the Nth mutating operation:
// the operation takes partial effect (a write persists a torn prefix;
// metadata operations do nothing) and every subsequent operation fails with
// ErrCrashed without touching the disk — the file-system shadow of a
// process that died at that instant. A harness runs the workload once with
// a counting FaultFS to learn the total step count, then once per step with
// the crash latch set, recovering each time with a real FS and checking the
// recovered state against a never-crashed oracle. That sweep is what turns
// "the checkpoint rotation is crash-safe" from a design argument into a
// tested property of every write site.
//
// The simulation is op-granular, not sector-granular: completed operations
// are assumed durable (the tests drive the store under its fsync-always
// policy, where that assumption matches the acknowledgement contract), and
// the crashing write tears mid-buffer. Reordering of un-fsynced writes is
// not modeled.
//
// # Error faults
//
// Rules inject errors that look exactly like the real thing — ENOSPC on
// write, EIO on fsync, short writes, silent bit-rot — so the store's
// classification and degraded-mode machinery is exercised against the same
// error values the kernel would produce. Every injected fault increments a
// counter surfaced as quasii_fault_injected_total.
package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// File is the handle surface the durability stack needs: sequential and
// positioned I/O, truncation, fsync.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (fs.FileInfo, error)
}

// FS is the file-system surface the WAL and snapshot writers use. Both the
// real implementation (OS) and the fault-injecting wrapper (FaultFS)
// satisfy it.
type FS interface {
	// OpenFile opens with the given flags, like os.OpenFile.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Create truncates-or-creates for writing, like os.Create.
	Create(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	MkdirAll(path string, perm fs.FileMode) error
	// SyncDir fsyncs a directory so renames and creations inside it are
	// durable.
	SyncDir(dir string) error
}

// OS is the pass-through FS over the os package. The zero value is ready to
// use; it is what the durability stack runs on in production.
type OS struct{}

func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (OS) Create(name string) (File, error)             { return os.Create(name) }
func (OS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileSync writes data to path and fsyncs the file — the one
// create→write→fsync→close sequence behind every small durable file (CURRENT,
// REPLMETA.json, MANIFEST.json, a follower's fetched snapshot files). With
// publish set the bytes go to path+".tmp", renamed over path with the parent
// directory fsynced: a crash leaves the old file or the new one, never a torn one.
func WriteFileSync(fsys FS, path string, data []byte, publish bool) error {
	dst := path
	if publish {
		dst += ".tmp"
	}
	f, err := fsys.Create(dst)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil || !publish {
		return err
	}
	if err := fsys.Rename(dst, path); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// Op names a mutating file-system operation class for rule matching.
type Op int

const (
	// OpAny matches every mutating operation.
	OpAny Op = iota
	// OpWrite is a File.Write.
	OpWrite
	// OpSync is a File.Sync or FS.SyncDir.
	OpSync
	// OpRename is an FS.Rename.
	OpRename
	// OpCreate is an FS.Create or FS.OpenFile with O_CREATE.
	OpCreate
	// OpRemove is an FS.Remove or FS.RemoveAll.
	OpRemove
	// OpTruncate is a File.Truncate.
	OpTruncate
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpCreate:
		return "create"
	case OpRemove:
		return "remove"
	case OpTruncate:
		return "truncate"
	default:
		return "any"
	}
}

// Kind is the fault a matching rule injects.
type Kind int

const (
	// KindErr fails the operation with the rule's Err (default EIO),
	// leaving the disk untouched.
	KindErr Kind = iota
	// KindENOSPC fails a write with syscall.ENOSPC after persisting
	// nothing — the full-disk case classification must treat as transient.
	KindENOSPC
	// KindShortWrite persists a prefix of the buffer and returns EIO with
	// the short count, the torn-write case.
	KindShortWrite
	// KindBitRot flips one bit of the buffer before writing and reports
	// success — silent corruption only a checksum can catch.
	KindBitRot
	// KindCrash persists a torn prefix (for writes; nothing for metadata
	// operations) and trips the crash latch: every later operation fails
	// with ErrCrashed without touching the disk.
	KindCrash
)

// ErrInjected tags every error produced by fault injection, so tests can
// assert provenance with errors.Is while production code classifies the
// unwrapped errno exactly as it would a real one.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrCrashed is returned by every operation after the crash latch trips.
// It wraps ErrInjected.
var ErrCrashed = &injectedError{msg: "faultfs: simulated crash", err: syscall.EIO}

// injectedError wraps an errno so that errors.Is matches both ErrInjected
// and the underlying errno (syscall.ENOSPC, syscall.EIO, ...).
type injectedError struct {
	msg string
	err error
}

func (e *injectedError) Error() string { return e.msg + ": " + e.err.Error() }
func (e *injectedError) Unwrap() error { return e.err }
func (e *injectedError) Is(target error) bool {
	return target == ErrInjected || errors.Is(e.err, target)
}

func injected(msg string, errno error) error {
	return &injectedError{msg: msg, err: errno}
}

// Rule matches a subset of mutating operations and injects one fault kind.
// All match fields compose with AND; zero values match everything.
type Rule struct {
	// Kind selects the injected fault.
	Kind Kind
	// Op restricts the rule to one operation class (OpAny = all).
	Op Op
	// PathContains restricts the rule to paths containing the substring
	// (e.g. "wal-" or "CURRENT"). Empty matches every path.
	PathContains string
	// AfterStep arms the rule only from that global mutating step on
	// (0 = from the start).
	AfterStep int64
	// Every fires on every Nth matching operation (0 or 1 = every one).
	Every int
	// Prob fires with this probability per matching operation, drawn from
	// the FaultFS's seeded generator (0 = always fire when matched).
	Prob float64
	// Times bounds how often the rule fires (0 = unlimited).
	Times int
	// Err overrides the injected error for KindErr (nil = EIO).
	Err error

	matched int64 // matching ops seen (for Every)
	fired   int64 // times fired (for Times)
}

// Config parameterizes a FaultFS.
type Config struct {
	// Seed drives the pseudo-random rule draws. The same seed over the
	// same workload injects the same faults.
	Seed int64
	// Rules are consulted in order; the first firing rule wins.
	Rules []*Rule
	// CrashStep trips the crash latch at this global mutating step
	// (1-based; 0 = never). It composes with Rules: the latch fires even
	// if no rule matches the operation.
	CrashStep int64
}

// FaultFS wraps an FS with deterministic fault injection. Safe for
// concurrent use; the rule table is guarded by a mutex (the durability
// stack's writers are near-serial, so this is not a hot path).
type FaultFS struct {
	under FS

	mu    sync.Mutex
	rng   *rand.Rand
	rules []*Rule

	step     atomic.Int64
	crashAt  atomic.Int64
	crashed  atomic.Bool
	injected atomic.Int64
}

// New wraps under (nil selects the real OS file system) with cfg's faults.
func New(under FS, cfg Config) *FaultFS {
	if under == nil {
		under = OS{}
	}
	f := &FaultFS{under: under, rules: cfg.Rules}
	f.rng = rand.New(rand.NewSource(cfg.Seed))
	f.crashAt.Store(cfg.CrashStep)
	return f
}

// Steps returns how many mutating operations have passed through, whether
// or not a fault fired on them. A counting pass (no rules, no crash step)
// over a workload yields the step total a crash-point sweep iterates over.
func (f *FaultFS) Steps() int64 { return f.step.Load() }

// Injected returns how many faults have fired.
func (f *FaultFS) Injected() int64 { return f.injected.Load() }

// Crashed reports whether the crash latch has tripped.
func (f *FaultFS) Crashed() bool { return f.crashed.Load() }

// SetRules replaces the rule table — the "operator fixed the disk" lever a
// degraded-mode test flips by installing an empty table.
func (f *FaultFS) SetRules(rules []*Rule) {
	f.mu.Lock()
	f.rules = rules
	f.mu.Unlock()
}

// decide advances the step counter and picks the fault (if any) for one
// mutating operation. It returns the firing rule's kind, or -1 for none.
func (f *FaultFS) decide(op Op, path string) (Kind, error) {
	if f.crashed.Load() {
		return -1, ErrCrashed
	}
	step := f.step.Add(1)
	if at := f.crashAt.Load(); at > 0 && step >= at {
		f.crashed.Store(true)
		f.injected.Add(1)
		return KindCrash, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.rules {
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.PathContains != "" && !strings.Contains(path, r.PathContains) {
			continue
		}
		if step < r.AfterStep {
			continue
		}
		r.matched++
		if r.Every > 1 && r.matched%int64(r.Every) != 0 {
			continue
		}
		if r.Prob > 0 && f.rng.Float64() >= r.Prob {
			continue
		}
		if r.Times > 0 && r.fired >= int64(r.Times) {
			continue
		}
		r.fired++
		f.injected.Add(1)
		return r.Kind, nil
	}
	return -1, nil
}

// metaOp runs decide for a metadata (non-write) operation and returns the
// error to inject, or nil to proceed.
func (f *FaultFS) metaOp(op Op, path string) error {
	k, err := f.decide(op, path)
	if err != nil {
		return err
	}
	switch k {
	case KindCrash:
		// The crashing metadata operation takes no effect; the latch is
		// already tripped for everything after it.
		return ErrCrashed
	case KindENOSPC:
		return injected("faultfs: injected ENOSPC", syscall.ENOSPC)
	case KindErr, KindShortWrite, KindBitRot:
		// Short writes and bit-rot have no buffer to tear on a metadata
		// operation; they degrade to a plain EIO.
		return injected("faultfs: injected error on "+op.String()+" "+filepath.Base(path), syscall.EIO)
	}
	return nil
}

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if flag&os.O_CREATE != 0 {
		if err := f.metaOp(OpCreate, name); err != nil {
			return nil, err
		}
	} else if f.crashed.Load() {
		return nil, ErrCrashed
	}
	fl, err := f.under.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, under: fl, name: name}, nil
}

func (f *FaultFS) Create(name string) (File, error) {
	if err := f.metaOp(OpCreate, name); err != nil {
		return nil, err
	}
	fl, err := f.under.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, under: fl, name: name}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if f.crashed.Load() {
		return nil, ErrCrashed
	}
	return f.under.ReadFile(name)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.metaOp(OpRename, newpath); err != nil {
		return err
	}
	return f.under.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if err := f.metaOp(OpRemove, name); err != nil {
		return err
	}
	return f.under.Remove(name)
}

func (f *FaultFS) RemoveAll(path string) error {
	if err := f.metaOp(OpRemove, path); err != nil {
		return err
	}
	return f.under.RemoveAll(path)
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if err := f.metaOp(OpCreate, path); err != nil {
		return err
	}
	return f.under.MkdirAll(path, perm)
}

func (f *FaultFS) SyncDir(dir string) error {
	if err := f.metaOp(OpSync, dir); err != nil {
		return err
	}
	return f.under.SyncDir(dir)
}

// faultFile threads per-handle writes, syncs and truncates back through the
// owning FaultFS's fault decisions. Reads pass through (after the crash
// latch, they fail like everything else: a dead process reads nothing).
type faultFile struct {
	fs    *FaultFS
	under File
	name  string
}

func (f *faultFile) Read(p []byte) (int, error) {
	if f.fs.crashed.Load() {
		return 0, ErrCrashed
	}
	return f.under.Read(p)
}

func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	if f.fs.crashed.Load() {
		return 0, ErrCrashed
	}
	return f.under.Seek(offset, whence)
}

func (f *faultFile) Write(p []byte) (int, error) {
	k, err := f.fs.decide(OpWrite, f.name)
	if err != nil {
		return 0, err
	}
	switch k {
	case KindENOSPC:
		return 0, injected("faultfs: injected ENOSPC", syscall.ENOSPC)
	case KindShortWrite:
		n := len(p) / 2
		wrote, _ := f.under.Write(p[:n])
		return wrote, injected("faultfs: injected short write", syscall.EIO)
	case KindBitRot:
		if len(p) > 0 {
			rotted := append([]byte(nil), p...)
			// Deterministic victim bit: derived from the step counter, not
			// the RNG, so a rot rule fires identically across runs.
			i := int(f.fs.step.Load()) % len(rotted)
			rotted[i] ^= 1 << 3
			return f.under.Write(rotted)
		}
		return f.under.Write(p)
	case KindCrash:
		// Tear the crashing write mid-buffer, then the latch (already
		// tripped by decide) blocks everything after it.
		if n := len(p) / 2; n > 0 {
			f.under.Write(p[:n])
			f.under.Sync()
		}
		return 0, ErrCrashed
	case KindErr:
		return 0, injected("faultfs: injected write error", syscall.EIO)
	}
	return f.under.Write(p)
}

func (f *faultFile) Sync() error {
	k, err := f.fs.decide(OpSync, f.name)
	if err != nil {
		return err
	}
	switch k {
	case KindCrash:
		return ErrCrashed
	case KindErr, KindENOSPC, KindShortWrite, KindBitRot:
		return injected("faultfs: injected fsync error", syscall.EIO)
	}
	return f.under.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	k, err := f.fs.decide(OpTruncate, f.name)
	if err != nil {
		return err
	}
	switch k {
	case KindCrash:
		return ErrCrashed
	case KindErr, KindENOSPC, KindShortWrite, KindBitRot:
		return injected("faultfs: injected truncate error", syscall.EIO)
	}
	return f.under.Truncate(size)
}

func (f *faultFile) Stat() (fs.FileInfo, error) {
	if f.fs.crashed.Load() {
		return nil, ErrCrashed
	}
	return f.under.Stat()
}

func (f *faultFile) Close() error {
	// Close always reaches the real file: leaking descriptors would make
	// the sweep harness (hundreds of simulated crashes per process) run out
	// of them, and a real crash closes descriptors too.
	return f.under.Close()
}
