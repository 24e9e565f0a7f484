package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// hygiene owns everything the benchmark leaves behind if it is not careful:
// child processes and scratch directories. Whatever way the run ends —
// normal return, error, SIGINT/SIGTERM, the hard timeout, a panic on the
// main goroutine — sweep kills the children, waits for them, and removes
// the directories. Children are also started with Pdeathsig, so even a
// SIGKILLed benchmark takes them along.
type hygiene struct {
	mu    sync.Mutex
	procs map[*serveProc]struct{}
	dirs  []string
}

var house = &hygiene{procs: make(map[*serveProc]struct{})}

func (h *hygiene) track(p *serveProc) {
	h.mu.Lock()
	h.procs[p] = struct{}{}
	h.mu.Unlock()
}

func (h *hygiene) untrack(p *serveProc) {
	h.mu.Lock()
	delete(h.procs, p)
	h.mu.Unlock()
}

// tempDir creates a scratch directory under root (inside the checkout: the
// benchmark writes nowhere else) that sweep will remove.
func (h *hygiene) tempDir(root, pattern string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(root, pattern)
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	h.dirs = append(h.dirs, dir)
	h.mu.Unlock()
	return dir, nil
}

func (h *hygiene) sweep() {
	h.mu.Lock()
	procs := h.procs
	dirs := h.dirs
	h.procs = make(map[*serveProc]struct{})
	h.dirs = nil
	h.mu.Unlock()
	for p := range procs {
		_ = p.cmd.Process.Kill() // already gone is fine
		<-p.gone
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d) // best effort on the way out
	}
}

// guard arranges the sweep for signals and for the hard timeout, and returns
// the function main defers for the normal and the panicking exit. A
// workload that outlives limit is reported as failed rather than left
// hanging.
func (h *hygiene) guard(limit time.Duration, what string) (done func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		var timeout <-chan time.Time
		if limit > 0 {
			t := time.NewTimer(limit)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "benchmark: %v, cleaning up\n", s)
			h.sweep()
			os.Exit(130)
		case <-timeout:
			fmt.Fprintf(os.Stderr, "benchmark: %s FAILED: hard timeout of %v exceeded\n", what, limit)
			h.sweep()
			os.Exit(3)
		case <-stop:
		}
	}()
	return func() {
		close(stop)
		signal.Stop(sig)
		h.sweep() // deferred, so it also runs while a panic unwinds main
	}
}

// buildServe compiles quasii-serve from the tree the benchmark stands in.
func buildServe(repoRoot, outDir string) (bin string, took time.Duration, err error) {
	bin = filepath.Join(outDir, "quasii-serve")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/quasii-serve")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building quasii-serve: %w\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// freeAddr picks a loopback port nobody listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// serveProc is one running quasii-serve.
type serveProc struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	gone chan struct{} // closed once the process has been reaped
	err  error         // its exit status, valid after gone
}

// startServe launches bin with args and returns once the process runs; use
// waitReady before sending traffic. stderr goes to logPath.
func startServe(bin, addr, logPath string, args []string) (*serveProc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serveProc{cmd: cmd, addr: addr, log: logf, gone: make(chan struct{})}
	house.track(p)
	go func() {
		p.err = cmd.Wait()
		house.untrack(p)
		close(p.gone)
	}()
	return p, nil
}

// waitReady polls /readyz until it answers 200, the process dies, or the
// deadline passes. Polling is tight (1 ms) because recovery_s is read off
// this loop.
func (p *serveProc) waitReady(client *http.Client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	url := "http://" + p.addr + "/readyz"
	for {
		select {
		case <-p.gone:
			return fmt.Errorf("quasii-serve exited before it was ready: %v", p.err)
		default:
		}
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("quasii-serve not ready after %v (last: %v)", limit, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill sends SIGKILL — the crash of the recovery test — and waits until the
// process is reaped.
func (p *serveProc) kill() error {
	err := p.cmd.Process.Kill()
	<-p.gone
	p.log.Close()
	if err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	return nil
}
