// The kit the chaos and failover harnesses share: one handle for a server
// child process, and one set of HTTP probes — a single request, a status
// condition, and a deadline poll over any condition.

package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os/exec"
	"syscall"
	"time"
)

// proc owns one server child process. The same argv is re-executed on
// every start, so a durable server restarts over its own data dir.
type proc struct {
	argv []string
	out  io.Writer // the child's stdout+stderr; nil discards
	cmd  *exec.Cmd // nil while not running
}

// startProc spawns argv with its output on out.
func startProc(argv []string, out io.Writer) (*proc, error) {
	if len(argv) == 0 {
		return nil, errors.New("empty command")
	}
	p := &proc{argv: argv, out: out}
	return p, p.start()
}

// start spawns a fresh process over the configured argv.
func (p *proc) start() error {
	cmd := exec.Command(p.argv[0], p.argv[1:]...)
	cmd.Stdout, cmd.Stderr = p.out, p.out
	if err := cmd.Start(); err != nil {
		return err
	}
	p.cmd = cmd
	return nil
}

// kill SIGKILLs and reaps the process — the machine-crash simulation: no
// graceful shutdown, no final snapshot. No-op when it is not running.
func (p *proc) kill() {
	if p.cmd == nil {
		return
	}
	_ = p.cmd.Process.Kill() // fails only if it already exited; Wait reaps it either way
	_ = p.cmd.Wait()         // SIGKILL makes this error by design
	p.cmd = nil
}

// term asks for a graceful exit (a durable server writes its final
// snapshot), escalating to SIGKILL after 10s. No-op when it is not running.
func (p *proc) term() {
	cmd := p.cmd
	if cmd == nil {
		return
	}
	// Signal and Kill fail only if the process already exited, and Wait
	// reports how it exited, which a harness tearing it down ignores.
	_ = cmd.Process.Signal(syscall.SIGTERM)
	waited := make(chan struct{})
	go func() {
		_ = cmd.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		<-waited
	}
	p.cmd = nil
}

// call sends one request — body JSON-encoded when non-nil — and decodes a
// 200 answer into out when out is non-nil. It returns the status and the
// response headers; status 0 is a transport, encoding or decoding failure.
func call(client *http.Client, method, url string, body, out interface{}) (int, http.Header) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, nil
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if json.NewDecoder(resp.Body).Decode(out) != nil {
			return 0, resp.Header
		}
		return resp.StatusCode, resp.Header
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header
}

// answers is the poll condition "GET url answers status want". Transport
// errors (a server not yet listening) simply read as false.
func answers(client *http.Client, url string, want int) func() bool {
	return func() bool {
		code, _ := call(client, http.MethodGet, url, nil, nil)
		return code == want
	}
}

// poll evaluates cond every interval until it holds or timeout passes,
// reporting which. cond is always tried at least once.
func poll(timeout, interval time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(interval)
	}
}
