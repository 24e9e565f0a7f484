package repl

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/faultfs"
	"repro/internal/wal"
)

// errRebootstrap tells the tail loop the leader can no longer serve this
// follower's resume point (history GC'd, or a diverged pair) and the only
// safe recovery is a fresh bootstrap.
var errRebootstrap = errors.New("repl: leader cannot serve resume point, re-bootstrap required")

// FollowerOptions configures Open.
type FollowerOptions struct {
	// LeaderURL is the leader's base URL (e.g. "http://10.0.0.1:8080").
	LeaderURL string
	// Dir is the follower's own data directory: it gets a full durable
	// store (snapshot generations + WAL), so a restart resumes from local
	// state without re-bootstrapping.
	Dir string
	// Store carries the durable-store knobs (shard config, fsync policy,
	// checkpoint cadence, retention, retry budget). Bootstrap must be nil
	// — the follower's bootstrap is the leader's snapshot, installed
	// through Store.FS like every other follower disk write.
	Store durable.Options

	// PollWait is the long-poll window a tail fetch asks the leader to
	// hold. 0 selects 2s.
	PollWait time.Duration
	// RequestTimeout bounds one WAL fetch end to end. 0 selects
	// PollWait + 10s (the poll window plus transfer headroom).
	RequestTimeout time.Duration
	// SnapshotTimeout bounds the bootstrap snapshot fetch. 0 selects 5m.
	SnapshotTimeout time.Duration
	// BackoffMin/BackoffMax bound the exponential retry backoff between
	// failed fetches. 0 selects 50ms / 3s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Seed drives the backoff jitter (reproducible tests). 0 selects 1.
	Seed int64

	// Transport is the HTTP transport for leader fetches; nil selects
	// http.DefaultTransport. Tests install a FaultTransport here.
	Transport http.RoundTripper
	// OnStateSwap is invoked (from the tail goroutine) after a
	// re-bootstrap replaces the follower's store: the previous index is
	// dead and the serving layer must re-wire onto the new one.
	OnStateSwap func(*durable.Store)

	Logger  *slog.Logger
	Metrics *Metrics
}

func (o *FollowerOptions) withDefaults() FollowerOptions {
	d := *o
	if d.PollWait <= 0 {
		d.PollWait = 2 * time.Second
	}
	if d.RequestTimeout <= 0 {
		d.RequestTimeout = d.PollWait + 10*time.Second
	}
	if d.SnapshotTimeout <= 0 {
		d.SnapshotTimeout = 5 * time.Minute
	}
	if d.BackoffMin <= 0 {
		d.BackoffMin = 50 * time.Millisecond
	}
	if d.BackoffMax <= 0 {
		d.BackoffMax = 3 * time.Second
	}
	if d.Seed == 0 {
		d.Seed = 1
	}
	if d.Logger == nil {
		d.Logger = slog.New(slog.DiscardHandler)
	}
	if d.Store.FS == nil {
		d.Store.FS = faultfs.OS{}
	}
	if d.Store.Logger == nil {
		d.Store.Logger = d.Logger
	}
	return d
}

// Follower owns a durable store kept in sync with a leader. It serves the
// normal read path through Store().Index() while read-only; Promote flips
// it into a writable leader. All methods are safe for concurrent use.
type Follower struct {
	opts   FollowerOptions
	logger *slog.Logger
	m      *Metrics
	client *http.Client

	store atomic.Pointer[durable.Store]

	writable     atomic.Bool
	bootstrapped atomic.Bool
	// leaderNext is the highest next-sequence the leader is known to have
	// reached — the lag reference: it rises with each response's header and
	// with every frame decoded off a WAL stream (a shipped frame was logged).
	leaderNext atomic.Uint64
	// caughtUpAt is the unix-nano instant lag was last observed 0 (the
	// follower's start instant until then): the lag-seconds reference.
	caughtUpAt atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand

	stopOnce sync.Once
	stopCh   chan struct{}
	runDone  chan struct{}
}

// Open brings up a follower: resume from local state in Dir when present,
// otherwise bootstrap from the leader's snapshot (retrying with backoff
// until ctx expires), then start tailing the leader's WAL in the
// background. The returned follower is immediately readable.
func Open(ctx context.Context, opts FollowerOptions) (*Follower, error) {
	if opts.LeaderURL == "" {
		return nil, errors.New("repl: FollowerOptions.LeaderURL is required")
	}
	if opts.Dir == "" {
		return nil, errors.New("repl: FollowerOptions.Dir is required")
	}
	if opts.Store.Bootstrap != nil {
		return nil, errors.New("repl: FollowerOptions.Store.Bootstrap must be nil (the leader's snapshot is the bootstrap)")
	}
	o := opts.withDefaults()
	f := &Follower{
		opts:    o,
		logger:  o.Logger,
		m:       o.Metrics,
		client:  &http.Client{Transport: o.Transport},
		rng:     rand.New(rand.NewSource(o.Seed)),
		stopCh:  make(chan struct{}),
		runDone: make(chan struct{}),
	}
	f.caughtUpAt.Store(time.Now().UnixNano())

	has, err := durable.HasState(o.Store.FS, o.Dir)
	if err != nil {
		return nil, err
	}
	if has {
		st, err := durable.Open(o.Dir, f.opts.Store)
		if err != nil {
			// Local state unreadable: treat it like a torn bootstrap and
			// fetch fresh — the leader is the source of truth.
			f.logger.Warn("follower state unreadable, re-bootstrapping", "dir", o.Dir, "err", err)
		} else {
			// Everything applied locally came from the leader's log.
			f.noteLeaderNext(st.NextSeq())
			f.store.Store(st)
			f.bootstrapped.Store(true)
			f.logger.Info("follower resumed from local state",
				"dir", o.Dir, "next_seq", st.NextSeq())
		}
	}
	if f.store.Load() == nil {
		if err := f.bootstrapRetry(ctx); err != nil {
			return nil, err
		}
	}
	go f.run()
	return f, nil
}

// Store returns the follower's current durable store (replaced only by a
// re-bootstrap, which announces itself via OnStateSwap).
func (f *Follower) Store() *durable.Store { return f.store.Load() }

// LeaderURL returns the configured leader base URL.
func (f *Follower) LeaderURL() string { return f.opts.LeaderURL }

// Writable reports whether the follower has been promoted.
func (f *Follower) Writable() bool { return f.writable.Load() }

// ReplProbe reports the follower's replication position: the last applied
// global sequence, the highest next sequence the leader is known to have
// reached (never below applied+1 while following), the lag in records and
// in seconds (time since last caught up), and whether the follower has
// completed a bootstrap. The serving layer reports it on /readyz and
// /stats.
func (f *Follower) ReplProbe() (appliedSeq, leaderSeq uint64, lagRecords int64, lagSeconds float64, bootstrapped bool) {
	st := f.store.Load()
	if st == nil {
		return 0, f.leaderNext.Load(), 0, 0, false
	}
	next := st.NextSeq()
	appliedSeq = next - 1
	leaderSeq = f.leaderNext.Load()
	if leaderSeq > next {
		lagRecords = int64(leaderSeq - next)
	}
	if lagRecords > 0 && !f.writable.Load() {
		lagSeconds = time.Since(time.Unix(0, f.caughtUpAt.Load())).Seconds()
	}
	return appliedSeq, leaderSeq, lagRecords, lagSeconds, f.bootstrapped.Load()
}

// noteLag refreshes the lag gauges after a poll.
func (f *Follower) noteLag() {
	// lagSec is 0 whenever lagRec is, so one probe serves both gauges.
	_, _, lagRec, lagSec, _ := f.ReplProbe()
	if lagRec == 0 {
		f.caughtUpAt.Store(time.Now().UnixNano())
	}
	if f.m != nil {
		f.m.LagRecords.Set(lagRec)
	}
	f.m.SetLagSeconds(lagSec)
}

// run is the tail loop: poll, apply, back off on failure, re-bootstrap
// when the leader says the resume point is unservable.
func (f *Follower) run() {
	defer close(f.runDone)
	backoff := f.opts.BackoffMin
	for {
		select {
		case <-f.stopCh:
			return
		default:
		}
		err := f.pollOnce()
		if err == nil {
			backoff = f.opts.BackoffMin
			continue
		}
		if errors.Is(err, errRebootstrap) {
			f.logger.Warn("leader cannot serve resume point, re-bootstrapping")
			if rerr := f.rebootstrap(); rerr != nil {
				f.logger.Warn("re-bootstrap failed, backing off", "err", rerr)
				if !f.sleep(backoff) {
					return
				}
				backoff = f.nextBackoff(backoff)
			} else {
				backoff = f.opts.BackoffMin
			}
			continue
		}
		if f.m != nil {
			f.m.Reconnects.Inc()
		}
		f.logger.Warn("replication fetch failed, backing off",
			"err", err, "backoff", backoff.String())
		if !f.sleep(backoff) {
			return
		}
		backoff = f.nextBackoff(backoff)
	}
}

// sleep waits d plus jitter, or until the loop is stopped (false).
func (f *Follower) sleep(d time.Duration) bool {
	f.rngMu.Lock()
	jitter := time.Duration(f.rng.Int63n(int64(d)/2 + 1))
	f.rngMu.Unlock()
	t := time.NewTimer(d + jitter)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-f.stopCh:
		return false
	}
}

func (f *Follower) nextBackoff(d time.Duration) time.Duration {
	d *= 2
	if d > f.opts.BackoffMax {
		d = f.opts.BackoffMax
	}
	return d
}

// pollOnce fetches and applies one batch of WAL records from the
// follower's own durable next-sequence — the resume point that makes every
// retry idempotent: a record is fetched again only if its append never
// committed locally.
func (f *Follower) pollOnce() error {
	st := f.store.Load()
	from := st.NextSeq()
	url := fmt.Sprintf("%s%s?from=%d&wait=%d",
		f.opts.LeaderURL, PathWAL, from, f.opts.PollWait.Milliseconds())
	ctx, cancel := context.WithTimeout(context.Background(), f.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	f.noteLeaderHeader(resp)

	switch resp.StatusCode {
	case http.StatusOK:
		// Stream-decode and apply. Each applied record goes through the
		// follower's own WAL before it is acknowledged, so the local
		// next-sequence — the next resume point — only moves when the
		// record is durable here. A torn or corrupt frame ends the batch
		// cleanly; everything after it is re-fetched next poll.
		dec := wal.NewStreamDecoder(resp.Body)
		var rec wal.Record
		applied := int64(0)
		var aerr error
		for {
			ok, derr := dec.Next(&rec)
			if derr != nil || !ok {
				break
			}
			// The leader keeps shipping frames logged after it stamped the
			// header: each decoded frame proves its log reaches this far.
			f.noteLeaderNext(from + uint64(applied) + 1)
			if aerr = st.Apply(&rec); aerr != nil {
				break
			}
			applied++
		}
		if f.m != nil {
			f.m.Applied.Add(applied)
		}
		f.noteLag()
		if aerr != nil {
			// A local apply failure (e.g. the follower's own disk
			// degraded) is a transient: back off and retry from the same
			// sequence once the store recovers.
			return fmt.Errorf("applying replicated record: %w", aerr)
		}
		return nil
	case http.StatusNoContent:
		f.noteLag()
		return nil
	case http.StatusGone, http.StatusConflict:
		return errRebootstrap
	default:
		return fmt.Errorf("repl: leader answered %s to wal fetch", resp.Status)
	}
}

// noteLeaderHeader folds a response's next-sequence header into leaderNext.
func (f *Follower) noteLeaderHeader(resp *http.Response) {
	if v, err := strconv.ParseUint(resp.Header.Get(HdrNextSeq), 10, 64); err == nil {
		f.noteLeaderNext(v)
	}
}

// noteLeaderNext raises leaderNext to at least v. Monotonic max: responses
// can arrive reordered relative to the leader's progress.
func (f *Follower) noteLeaderNext(v uint64) {
	for {
		cur := f.leaderNext.Load()
		if v <= cur || f.leaderNext.CompareAndSwap(cur, v) {
			return
		}
	}
}

// bootstrapRetry runs bootstrap attempts with backoff until one succeeds
// or ctx expires.
func (f *Follower) bootstrapRetry(ctx context.Context) error {
	backoff := f.opts.BackoffMin
	for {
		err := f.bootstrapOnce(ctx)
		if err == nil {
			return nil
		}
		f.logger.Warn("bootstrap attempt failed", "err", err)
		select {
		case <-ctx.Done():
			return fmt.Errorf("repl: bootstrap: %w (last error: %v)", ctx.Err(), err)
		case <-time.After(backoff):
		}
		backoff = f.nextBackoff(backoff)
	}
}

// bootstrapOnce wipes Dir and installs a fresh generation fetched from the
// leader: archive into snap-G.fetch, rename into place, point CURRENT at
// it, open the store. Any failure leaves a directory the next attempt (or
// a process restart) wipes again — never a half-installed CURRENT.
func (f *Follower) bootstrapOnce(ctx context.Context) error {
	fctx, cancel := context.WithTimeout(ctx, f.opts.SnapshotTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet, f.opts.LeaderURL+PathSnapshot, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: leader answered %s to snapshot fetch", resp.Status)
	}
	gen, err := strconv.ParseUint(resp.Header.Get(HdrGen), 10, 64)
	if err != nil {
		return fmt.Errorf("repl: bad %s header: %w", HdrGen, err)
	}
	fsys := f.opts.Store.FS
	if err := fsys.RemoveAll(f.opts.Dir); err != nil {
		return err
	}
	// ReadArchive creates the staging directory, and Dir with it.
	tmp := durable.SnapshotDir(f.opts.Dir, gen) + ".fetch"
	if err := ReadArchive(fsys, resp.Body, tmp); err != nil {
		return err
	}
	if err := durable.InstallCurrent(fsys, f.opts.Dir, tmp, gen); err != nil {
		return err
	}
	st, err := durable.Open(f.opts.Dir, f.opts.Store)
	if err != nil {
		return fmt.Errorf("opening bootstrapped state: %w", err)
	}
	f.noteLeaderHeader(resp)
	f.store.Store(st)
	f.bootstrapped.Store(true)
	f.caughtUpAt.Store(time.Now().UnixNano())
	if f.m != nil {
		f.m.Bootstraps.Inc()
	}
	f.logger.Info("follower bootstrapped from leader snapshot",
		"generation", gen, "next_seq", st.NextSeq(), "leader", f.opts.LeaderURL)
	return nil
}

// rebootstrap retires the current store and fetches fresh state. Reads
// keep serving the old index until the swap lands.
func (f *Follower) rebootstrap() error {
	f.bootstrapped.Store(false)
	if st := f.store.Load(); st != nil {
		if err := st.Close(); err != nil && !errors.Is(err, durable.ErrClosed) {
			f.logger.Warn("closing stale follower store", "err", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), f.opts.SnapshotTimeout)
	defer cancel()
	if err := f.bootstrapOnce(ctx); err != nil {
		return err
	}
	if f.opts.OnStateSwap != nil {
		f.opts.OnStateSwap(f.store.Load())
	}
	return nil
}

// stopTail stops the tail loop and waits for it to exit.
func (f *Follower) stopTail() {
	f.stopOnce.Do(func() { close(f.stopCh) })
	<-f.runDone
}

// Promote stops tailing, checkpoints the applied state to a fresh
// generation (proving the local disk writable end to end), and flips the
// follower writable. Idempotent: promoting a promoted follower returns the
// live generation. On checkpoint failure the follower stays read-only and
// Promote may be retried.
func (f *Follower) Promote() (uint64, error) {
	st := f.store.Load()
	if st == nil || !f.bootstrapped.Load() {
		return 0, errors.New("repl: cannot promote before bootstrap completes")
	}
	if f.writable.Load() {
		return st.Seq(), nil
	}
	f.stopTail()
	seq, err := st.Checkpoint()
	if err != nil {
		return 0, fmt.Errorf("promotion checkpoint: %w", err)
	}
	f.writable.Store(true)
	if f.m != nil {
		f.m.Promotions.Inc()
		f.m.LagRecords.Set(0)
		f.m.SetLagSeconds(0)
	}
	f.logger.Info("follower promoted to leader", "snapshot_seq", seq)
	return seq, nil
}

// Close stops tailing and closes the store.
func (f *Follower) Close() error {
	f.stopTail()
	if st := f.store.Load(); st != nil {
		if err := st.Close(); err != nil && !errors.Is(err, durable.ErrClosed) {
			return err
		}
	}
	return nil
}
