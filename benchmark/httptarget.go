package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// httpTarget is a separate quasii-serve process reached over loopback HTTP:
// the whole stack, socket included. Each closed-loop client owns one
// keep-alive connection.
type httpTarget struct {
	wireOps
	dir  string   // scratch directory of this workload
	bin  string   // the quasii-serve built from this tree
	args []string // every flag after -addr, as recorded in the results

	proc    *serveProc
	base    string
	conns   []*http.Client // one per wire client
	ctl     *http.Client   // readiness polls and /metrics scrapes
	peakRSS float64
}

// serveArgs returns quasii-serve's command line for spec, -addr aside. Only
// the flags listed here differ from the binary's defaults.
func serveArgs(spec workloadSpec, seed int64, dataDir string) []string {
	args := []string{
		"-dataset", spec.Data,
		"-n", strconv.Itoa(spec.N),
		"-seed", strconv.FormatInt(seed, 10),
		"-shards", strconv.Itoa(shardCount(spec)),
	}
	if spec.Durable {
		args = append(args,
			"-data-dir", dataDir,
			"-fsync", "always",
			"-flush-every", strconv.Itoa(mixedFlushEvery),
			"-checkpoint-every", strconv.Itoa(mixedCheckpointEvery),
		)
	}
	return args
}

func newHTTPTarget(in *inputs, dir, bin string, clients int) *httpTarget {
	t := &httpTarget{
		wireOps: newWireOps(in, clients),
		dir:     dir, bin: bin,
		args: serveArgs(in.spec, in.seed, filepath.Join(dir, "data")),
		ctl:  &http.Client{Timeout: 10 * time.Second},
	}
	for i := 0; i < clients; i++ {
		t.conns = append(t.conns, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		})
	}
	t.post = t.postHTTP
	return t
}

func (t *httpTarget) postHTTP(c *wireClient, path string, body []byte) error {
	resp, err := t.conns[c.index].Post(t.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s answered %d: %.200s", path, resp.StatusCode, c.buf.Bytes())
	}
	return nil
}

func (t *httpTarget) launch() error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	p, err := startServe(t.bin, addr, filepath.Join(t.dir, "serve.log"), t.args)
	if err != nil {
		return err
	}
	t.proc, t.base = p, "http://"+addr
	if err := p.waitReady(t.ctl, 120*time.Second); err != nil {
		return fmt.Errorf("%w\n%s", err, t.serveLog())
	}
	return nil
}

// serveLog returns the tail of the server's stderr for error reports.
func (t *httpTarget) serveLog() string {
	b, err := os.ReadFile(filepath.Join(t.dir, "serve.log"))
	if err != nil {
		return ""
	}
	if len(b) > 4096 {
		b = b[len(b)-4096:]
	}
	return "--- quasii-serve log tail ---\n" + string(b)
}

func (t *httpTarget) Setup() error {
	if err := os.RemoveAll(filepath.Join(t.dir, "data")); err != nil {
		return err
	}
	return t.launch()
}

// metricsText fetches /metrics, the same series production dashboards read.
func (t *httpTarget) metricsText() (string, error) {
	resp, err := t.ctl.Get(t.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func (t *httpTarget) Counters() (map[string]float64, error) {
	text, err := t.metricsText()
	if err != nil {
		return nil, err
	}
	return countersFrom(text)
}

func (t *httpTarget) Cracks() (uint64, error) { return cracksOf(t.Counters()) }

// cracksOf picks the convergence counter out of a counters map: it stands
// still once the index has converged on the queries it has seen.
func cracksOf(c map[string]float64, err error) (uint64, error) {
	if err != nil {
		return 0, err
	}
	v, ok := c["core.crack_epochs"]
	if !ok {
		return 0, fmt.Errorf("/metrics has no quasii_core_crack_epochs_total")
	}
	return uint64(v), nil
}

func (t *httpTarget) notePeakRSS() {
	if t.proc == nil {
		return
	}
	if v, err := peakRSSMiB(t.proc.cmd.Process.Pid); err == nil && v > t.peakRSS {
		t.peakRSS = v
	}
}

func (t *httpTarget) dropConns() {
	for _, c := range t.conns {
		c.CloseIdleConnections()
	}
}

func (t *httpTarget) Persist() error { return nil }

// Recover is the crash test: SIGKILL, start the same command line again,
// wait for /readyz 200. A durable server restores its snapshot and replays
// its WAL; a memory-only one rebuilds the dataset from the generator.
func (t *httpTarget) Recover() error {
	t.notePeakRSS()
	if err := t.proc.kill(); err != nil {
		return err
	}
	t.dropConns()
	return t.launch()
}

func (t *httpTarget) Durable() bool { return t.in.spec.Durable }

func (t *httpTarget) PeakRSSMiB() (float64, error) {
	t.notePeakRSS()
	if t.peakRSS == 0 {
		return 0, fmt.Errorf("no VmHWM reading of quasii-serve")
	}
	return t.peakRSS, nil
}

func (t *httpTarget) Close() error {
	if t.proc == nil {
		return nil
	}
	t.notePeakRSS()
	err := t.proc.kill()
	t.proc = nil
	t.dropConns()
	return err
}
