// Chaos harness: repeatedly hard-kill (SIGKILL) and restart a server
// process while a load-generation run is in flight. Each kill simulates a
// machine-level crash — no graceful shutdown, no final snapshot — so the
// restart exercises the full durable-recovery path (snapshot restore + WAL
// replay) under live traffic, and the loadgen clients, running with
// RetryTransport, must ride out every restart window without errors or
// oracle mismatches. This is the process-level complement to the in-process
// crash-point sweep in internal/durable.

package bench

import (
	"fmt"
	"io"
	"net/http"
	"time"
)

// ChaosConfig parameterizes one chaos run.
type ChaosConfig struct {
	// Command is the server command line, argv-style (no shell expansion);
	// the same command is re-executed for every restart, so it must point
	// at a durable data dir for state to survive.
	Command []string
	// BaseURL is polled on /healthz after each (re)start.
	BaseURL string
	// Kills is the number of kill→restart cycles (min 1).
	Kills int
	// Interval is the dwell time between a healthy restart and the next
	// kill — the window in which the freshly recovered server serves load.
	// 0 selects 2s.
	Interval time.Duration
	// WaitReady bounds each post-start health poll. 0 selects 30s. A
	// restart that never turns healthy aborts the kill loop and fails the
	// run.
	WaitReady time.Duration
	// ServerOut receives the server's stdout+stderr (nil discards).
	ServerOut io.Writer
	// Client overrides the health-poll HTTP client.
	Client *http.Client
}

// ChaosResult aggregates one chaos run.
type ChaosResult struct {
	Kills    int           // SIGKILLs delivered
	Restarts int           // restarts that reached healthy again
	Downtime time.Duration // summed kill→healthy windows
}

// RunChaos starts the server, waits for it to become healthy, runs the
// kill→restart loop concurrently with during (typically a RunLoadgen
// call), and tears the server down afterwards. The loop stops early when
// during returns first; an in-progress cycle always completes its restart,
// so during never observes a permanently dead server. The returned error
// covers process-management failures (spawn failed, restart never turned
// healthy); load-side failures stay in during's own result.
func RunChaos(cfg ChaosConfig, during func()) (*ChaosResult, error) {
	if cfg.Kills < 1 {
		cfg.Kills = 1
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.WaitReady <= 0 {
		cfg.WaitReady = 30 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	healthy := answers(client, cfg.BaseURL+"/healthz", http.StatusOK)
	srv, err := startProc(cfg.Command, cfg.ServerOut)
	if err != nil {
		return nil, fmt.Errorf("chaos: starting server: %w", err)
	}
	defer srv.term()
	if !poll(cfg.WaitReady, 50*time.Millisecond, healthy) {
		return nil, fmt.Errorf("chaos: server never became healthy at %s", cfg.BaseURL)
	}

	// Only the kill loop touches srv until it has exited; the deferred term
	// runs strictly after.
	res := &ChaosResult{}
	halt := make(chan struct{})
	done := make(chan error)
	go func() {
		timer := time.NewTimer(cfg.Interval)
		defer timer.Stop()
		for i := 0; i < cfg.Kills; i++ {
			// Each cycle: dwell, SIGKILL, reap, restart, poll healthy.
			timer.Reset(cfg.Interval)
			select {
			case <-halt:
				done <- nil
				return
			case <-timer.C:
			}
			t0 := time.Now()
			srv.kill()
			res.Kills++
			if err := srv.start(); err != nil {
				done <- fmt.Errorf("chaos: restart %d: %w", i+1, err)
				return
			}
			if !poll(cfg.WaitReady, 50*time.Millisecond, healthy) {
				done <- fmt.Errorf("chaos: restart %d never became healthy (WAL recovery stuck?)", i+1)
				return
			}
			res.Restarts++
			res.Downtime += time.Since(t0)
		}
		done <- nil
	}()
	during()
	close(halt)
	return res, <-done
}

// PrintChaos writes the chaos-side run summary.
func PrintChaos(w io.Writer, r *ChaosResult) {
	fmt.Fprintf(w, "chaos: %d kills, %d recovered restarts, %v total downtime\n",
		r.Kills, r.Restarts, r.Downtime.Round(time.Millisecond))
}
