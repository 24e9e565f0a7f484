package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestOSPassThrough(t *testing.T) {
	dir := t.TempDir()
	var fs FS = OS{}

	if err := fs.MkdirAll(filepath.Join(dir, "a", "b"), 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	name := filepath.Join(dir, "a", "b", "f.dat")
	f, err := fs.Create(name)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := fs.SyncDir(filepath.Join(dir, "a", "b")); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	got, err := fs.ReadFile(name)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	renamed := filepath.Join(dir, "a", "b", "g.dat")
	if err := fs.Rename(name, renamed); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if err := fs.Remove(renamed); err != nil {
		t.Fatalf("Remove: %v", err)
	}
}

func TestInjectENOSPCOnWrite(t *testing.T) {
	dir := t.TempDir()
	ff := New(nil, Config{Rules: []*Rule{{Kind: KindENOSPC, Op: OpWrite}}})

	f, err := ff.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	_, err = f.Write([]byte("x"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("injected error must match ErrInjected, got %v", err)
	}
	if ff.Injected() != 1 {
		t.Fatalf("Injected() = %d, want 1", ff.Injected())
	}
}

func TestInjectFsyncError(t *testing.T) {
	dir := t.TempDir()
	ff := New(nil, Config{Rules: []*Rule{{Kind: KindErr, Op: OpSync}}})

	f, err := ff.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("payload")); err != nil {
		t.Fatalf("Write should pass (rule is sync-only): %v", err)
	}
	err = f.Sync()
	if !errors.Is(err, syscall.EIO) || !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected EIO on fsync, got %v", err)
	}
}

func TestShortWritePersistsPrefix(t *testing.T) {
	dir := t.TempDir()
	ff := New(nil, Config{Rules: []*Rule{{Kind: KindShortWrite, Op: OpWrite, Times: 1}}})

	name := filepath.Join(dir, "f")
	f, err := ff.Create(name)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	payload := []byte("0123456789")
	n, err := f.Write(payload)
	if err == nil {
		t.Fatal("short write must return an error")
	}
	if n != len(payload)/2 {
		t.Fatalf("short write persisted %d bytes, want %d", n, len(payload)/2)
	}
	f.Close()
	got, _ := os.ReadFile(name)
	if string(got) != "01234" {
		t.Fatalf("on-disk prefix = %q, want %q", got, "01234")
	}
}

func TestBitRotFlipsOneBitSilently(t *testing.T) {
	dir := t.TempDir()
	ff := New(nil, Config{Rules: []*Rule{{Kind: KindBitRot, Op: OpWrite, Times: 1}}})

	name := filepath.Join(dir, "f")
	f, err := ff.Create(name)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	payload := []byte("0123456789")
	n, err := f.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("bit-rot write must report success, got n=%d err=%v", n, err)
	}
	f.Close()
	got, _ := os.ReadFile(name)
	if len(got) != len(payload) {
		t.Fatalf("rotted write length %d, want %d", len(got), len(payload))
	}
	diff := 0
	for i := range got {
		if got[i] != payload[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ after bit-rot, want exactly 1", diff)
	}
}

func TestCrashLatchBlocksEverythingAfter(t *testing.T) {
	dir := t.TempDir()
	// Step 1 = Create, step 2 = first Write: crash on the write.
	ff := New(nil, Config{CrashStep: 2})

	name := filepath.Join(dir, "f")
	f, err := ff.Create(name)
	if err != nil {
		t.Fatalf("Create (pre-crash) must succeed: %v", err)
	}
	_, err = f.Write([]byte("0123456789"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash-step write: want ErrCrashed, got %v", err)
	}
	if !ff.Crashed() {
		t.Fatal("latch must be tripped")
	}
	// Torn prefix of the crashing write persisted.
	got, _ := os.ReadFile(name)
	if string(got) != "01234" {
		t.Fatalf("torn prefix = %q, want %q", got, "01234")
	}
	// Everything after the crash fails, reads included, with no effect.
	if _, err := f.Write([]byte("more")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write: want ErrCrashed, got %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync: want ErrCrashed, got %v", err)
	}
	if _, err := ff.Create(filepath.Join(dir, "g")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash create: want ErrCrashed, got %v", err)
	}
	if err := ff.Rename(name, name+".x"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash rename: want ErrCrashed, got %v", err)
	}
	if _, err := ff.ReadFile(name); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read: want ErrCrashed, got %v", err)
	}
	if _, err := os.Stat(name + ".x"); !os.IsNotExist(err) {
		t.Fatal("post-crash rename must have no side effect")
	}
}

func TestStepCountingIsDeterministic(t *testing.T) {
	workload := func(fs FS, dir string) {
		f, err := fs.Create(filepath.Join(dir, "w"))
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		for i := 0; i < 3; i++ {
			if _, err := f.Write([]byte("chunk")); err != nil {
				t.Fatalf("Write: %v", err)
			}
			if err := f.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
		}
		f.Close()
		if err := fs.Rename(filepath.Join(dir, "w"), filepath.Join(dir, "w2")); err != nil {
			t.Fatalf("Rename: %v", err)
		}
		if err := fs.SyncDir(dir); err != nil {
			t.Fatalf("SyncDir: %v", err)
		}
	}

	a := New(nil, Config{})
	workload(a, t.TempDir())
	b := New(nil, Config{})
	workload(b, t.TempDir())
	if a.Steps() != b.Steps() {
		t.Fatalf("same workload, different step counts: %d vs %d", a.Steps(), b.Steps())
	}
	// create + 3*(write+sync) + rename + syncdir = 9 mutating steps.
	if a.Steps() != 9 {
		t.Fatalf("Steps() = %d, want 9", a.Steps())
	}
}

func TestRulePathAndEveryMatching(t *testing.T) {
	dir := t.TempDir()
	ff := New(nil, Config{Rules: []*Rule{
		{Kind: KindErr, Op: OpWrite, PathContains: "wal-", Every: 2},
	}})

	wal, err := ff.Create(filepath.Join(dir, "wal-000001.log"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	other, err := ff.Create(filepath.Join(dir, "snapshot.dat"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer wal.Close()
	defer other.Close()

	// Non-matching path never faults.
	for i := 0; i < 4; i++ {
		if _, err := other.Write([]byte("x")); err != nil {
			t.Fatalf("snapshot write %d: %v", i, err)
		}
	}
	// Matching path faults on every 2nd write.
	var errs int
	for i := 0; i < 4; i++ {
		if _, err := wal.Write([]byte("x")); err != nil {
			errs++
		}
	}
	if errs != 2 {
		t.Fatalf("Every=2 over 4 writes injected %d errors, want 2", errs)
	}
}

func TestSeededProbIsDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		dir := t.TempDir()
		ff := New(nil, Config{Seed: seed, Rules: []*Rule{
			{Kind: KindErr, Op: OpWrite, Prob: 0.5},
		}})
		f, err := ff.Create(filepath.Join(dir, "f"))
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		defer f.Close()
		out := make([]bool, 32)
		for i := range out {
			_, err := f.Write([]byte("x"))
			out[i] = err != nil
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at write %d", i)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault patterns (suspicious)")
	}
}

func TestSetRulesClearsFaults(t *testing.T) {
	dir := t.TempDir()
	ff := New(nil, Config{Rules: []*Rule{{Kind: KindErr, Op: OpWrite}}})
	f, err := ff.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("rule must fire before SetRules(nil)")
	}
	ff.SetRules(nil)
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("write must succeed after faults cleared: %v", err)
	}
}

func TestTimesBoundsInjections(t *testing.T) {
	dir := t.TempDir()
	ff := New(nil, Config{Rules: []*Rule{{Kind: KindErr, Op: OpWrite, Times: 3}}})
	f, err := ff.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	var errs int
	for i := 0; i < 10; i++ {
		if _, err := f.Write([]byte("x")); err != nil {
			errs++
		}
	}
	if errs != 3 {
		t.Fatalf("Times=3 injected %d errors, want 3", errs)
	}
	if ff.Injected() != 3 {
		t.Fatalf("Injected() = %d, want 3", ff.Injected())
	}
}

// WriteFileSync with publish set must be atomic under a crash at any of its
// steps: the path holds the old bytes or the new ones, never a torn mix, and
// never nothing. Without publish it is the plain create → write → fsync.
func TestWriteFileSyncPublishIsAtomicAtEveryStep(t *testing.T) {
	old, fresh := []byte("generation 7\n"), []byte("generation 8, a longer line\n")
	counter := New(nil, Config{})
	path := filepath.Join(t.TempDir(), "CURRENT")
	if err := WriteFileSync(counter, path, old, false); err != nil {
		t.Fatalf("plain write: %v", err)
	}
	if got := counter.Steps(); got != 3 {
		t.Fatalf("plain write took %d steps, want 3 (create, write, fsync)", got)
	}
	if err := WriteFileSync(counter, path, fresh, true); err != nil {
		t.Fatalf("publishing write: %v", err)
	}
	steps := counter.Steps() - 3
	if steps != 5 {
		t.Fatalf("publishing write took %d steps, want 5 (create, write, fsync, rename, dir fsync)", steps)
	}
	for k := int64(1); k <= steps; k++ {
		path := filepath.Join(t.TempDir(), "CURRENT")
		if err := WriteFileSync(OS{}, path, old, false); err != nil {
			t.Fatal(err)
		}
		ff := New(nil, Config{CrashStep: k})
		if err := WriteFileSync(ff, path, fresh, true); !errors.Is(err, ErrInjected) {
			t.Fatalf("crash step %d: err = %v, want an injected crash", k, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("crash step %d: %v", k, err)
		}
		// The rename is step 4: before it the old bytes, from it on (the
		// crashing rename itself takes no effect) only a completed rename
		// shows the new ones.
		want := old
		if k == 5 {
			want = fresh
		}
		if string(got) != string(want) {
			t.Fatalf("crash step %d: path holds %q, want %q", k, got, want)
		}
	}
}
