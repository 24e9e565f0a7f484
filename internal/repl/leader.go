package repl

import (
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/durable"
	"repro/internal/wal"
)

// Leader serves a durable store's state to followers. The serving layer
// mounts its two handlers when Config.ReplSource is set. Both are safe for
// concurrent use and pin the generation they stream, so a checkpoint
// landing mid-transfer can never garbage-collect it underneath them.
type Leader struct {
	store  *durable.Store
	m      *Metrics
	logger *slog.Logger
	// maxWait caps a single /repl/wal long poll; followers re-poll.
	maxWait time.Duration
}

// NewLeader wires a leader over store. Metrics and logger may be nil.
func NewLeader(store *durable.Store, m *Metrics, logger *slog.Logger) *Leader {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &Leader{store: store, m: m, logger: logger, maxWait: 30 * time.Second}
}

// ServeSnapshot streams the live checkpoint generation as a CRC-framed
// archive (GET /repl/snapshot).
func (l *Leader) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	gen, start, dir, release, err := l.store.AcquireSnapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer release()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HdrGen, strconv.FormatUint(gen, 10))
	w.Header().Set(HdrStartSeq, strconv.FormatUint(start, 10))
	w.Header().Set(HdrNextSeq, strconv.FormatUint(l.store.NextSeq(), 10))
	if err := WriteArchive(w, dir); err != nil {
		// Headers are long gone; the follower detects the cut by the
		// missing sentinel. Log and move on.
		l.logger.Warn("snapshot stream aborted", "generation", gen, "err", err)
		return
	}
	if l.m != nil {
		l.m.SnapshotStreams.Inc()
	}
	l.logger.Info("snapshot streamed to follower",
		"generation", gen, "start_seq", start, "remote", r.RemoteAddr)
}

// ServeWAL streams raw WAL frames from a global sequence (GET
// /repl/wal?from=N&wait=ms). With wait, an empty tail long-polls until a
// record lands or the window expires (204). 410 means N was garbage-
// collected, 409 that N is ahead of this leader's log — both tell the
// follower to re-bootstrap.
func (l *Leader) ServeWAL(w http.ResponseWriter, r *http.Request) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil || from == 0 {
		http.Error(w, "repl: ?from must be a positive sequence number", http.StatusBadRequest)
		return
	}
	var wait time.Duration
	if raw := r.URL.Query().Get("wait"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms < 0 {
			http.Error(w, "repl: ?wait must be non-negative milliseconds", http.StatusBadRequest)
			return
		}
		wait = time.Duration(ms) * time.Millisecond
	}
	if wait > l.maxWait {
		wait = l.maxWait
	}

	if from > l.store.NextSeq() {
		http.Error(w, durable.ErrSeqAhead.Error(), http.StatusConflict)
		return
	}

	// Long-poll: arm the notification channel before re-checking the
	// sequence, so a record landing between the check and the wait can
	// never be missed.
	deadline := time.Now().Add(wait)
	for l.store.NextSeq() <= from {
		notify := l.store.UpdateNotify()
		if l.store.NextSeq() > from {
			break
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			w.Header().Set(HdrNextSeq, strconv.FormatUint(l.store.NextSeq(), 10))
			w.WriteHeader(http.StatusNoContent)
			return
		}
		t := time.NewTimer(remain)
		select {
		case <-notify:
		case <-t.C:
		case <-r.Context().Done():
			t.Stop()
			return
		}
		t.Stop()
	}

	gen, start, path, release, err := l.store.AcquireWAL(from)
	switch {
	case errors.Is(err, durable.ErrSeqTruncated):
		http.Error(w, err.Error(), http.StatusGone)
		return
	case errors.Is(err, durable.ErrSeqAhead):
		http.Error(w, err.Error(), http.StatusConflict)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer release()

	rd, err := wal.OpenReader(path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer rd.Close()
	skipped, err := rd.Skip(from - start)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	first, ok, err := rd.Next()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if skipped < from-start || !ok {
		// The log's intact prefix ends before a record the sequence
		// counter promised: rotted or truncated history. Same recovery as
		// GC'd history — the follower re-bootstraps from the snapshot.
		l.logger.Error("wal history unreadable before requested sequence",
			"generation", gen, "from", from, "intact_skipped", skipped)
		http.Error(w, durable.ErrSeqTruncated.Error(), http.StatusGone)
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HdrGen, strconv.FormatUint(gen, 10))
	w.Header().Set(HdrStartSeq, strconv.FormatUint(from, 10))
	w.Header().Set(HdrNextSeq, strconv.FormatUint(l.store.NextSeq(), 10))
	shipped := int64(0)
	for {
		if _, werr := w.Write(first); werr != nil {
			break // follower went away; it will resume from its own seq
		}
		shipped++
		first, ok, err = rd.Next()
		if err != nil || !ok {
			break
		}
	}
	if l.m != nil {
		l.m.WALStreams.Inc()
		l.m.ShippedRecords.Add(shipped)
	}
}
