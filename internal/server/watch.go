package server

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"xdgp/internal/readplane"
)

// This file is the change feed: GET /v1/watch streams per-epoch routing
// diffs as NDJSON. The hub retains a bounded ring of recent diffs;
// consumers pull from the ring at their own pace, so a slow consumer
// costs the daemon nothing but its blocked handler goroutine — when the
// ring has moved past a consumer's position it gets a resync event, not
// an unbounded queue (the regression test pins both properties).

// DefaultWatchRing is the diff-ring size used when Config.WatchRing is
// zero: at the default 250 ms tick (≤2 epochs per tick) it covers ~32
// seconds of maximal-churn history for reconnecting consumers — and
// arbitrarily long idle or low-churn periods, since only epochs that
// actually changed something occupy ring slots. Size up via -watch-ring
// for consumers with longer reconnect windows under sustained churn.
const DefaultWatchRing = 256

// watchHub retains the last ringMax epoch diffs and wakes blocked
// watchers on publish. Publication happens under the server's state
// lock; reads (since/wait) take only the hub's own mutex, never the
// state lock.
type watchHub struct {
	mu      sync.Mutex
	ring    []*EpochDiff // chronological; epochs are consecutive
	ringMax int
	next    uint64        // epoch the next published diff will carry
	notify  chan struct{} // closed and replaced on every publish
	evicted uint64        // diffs dropped off the ring (watch "drops")
}

func newWatchHub(ringMax uint64) *watchHub {
	return &watchHub{
		ringMax: int(ringMax),
		next:    2, // epoch 1 is the bootstrap snapshot; its diff is never retained
		notify:  make(chan struct{}),
	}
}

// publish appends d (whose epoch must be h.next), evicts past the ring
// bound, and wakes every waiter.
func (h *watchHub) publish(d *EpochDiff) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ring = append(h.ring, d)
	h.next = d.Epoch + 1
	if len(h.ring) > h.ringMax {
		drop := len(h.ring) - h.ringMax
		h.evicted += uint64(drop)
		h.ring = append(h.ring[:0:0], h.ring[drop:]...)
	}
	close(h.notify)
	h.notify = make(chan struct{})
}

// wait returns a channel closed at the next publish. Callers must call
// wait BEFORE re-checking since() to avoid missed-wakeup races.
func (h *watchHub) wait() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.notify
}

// since returns the retained diffs with epoch ≥ from, in order. When
// the caller cannot be served incrementally, needResync is true and it
// must re-bootstrap from a full snapshot: either the epochs it needs
// were already evicted (from < oldest retained), or it asks for an
// epoch beyond the next one this hub will issue (from > next). The
// HTTP handler pre-rejects the from > next case with a 400 — this
// process provably never published such an epoch, the signature of a
// consumer resuming across a daemon restart — so that arm survives here
// only as defence for direct (in-process) callers. from == next is the
// normal caught-up case: no diffs, no resync, wait for the next publish.
// next is the epoch the next published diff will carry, read under the
// same lock as the ring: a resynced consumer's table is current as of
// next−1 and resumes from next. The returned slice aliases immutable
// diffs and may be used without the hub's lock.
func (h *watchHub) since(from uint64) (diffs []*EpochDiff, next uint64, needResync bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	oldest := h.next - uint64(len(h.ring))
	if from < oldest || from > h.next {
		return nil, h.next, true
	}
	if from == h.next {
		return nil, h.next, false
	}
	idx := int(from - oldest)
	return h.ring[idx:], h.next, false
}

// nextEpoch returns the epoch the next published diff will carry — the
// resume point of a consumer that wants only changes from now on.
func (h *watchHub) nextEpoch() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.next
}

// retained reports the current ring occupancy and the eviction counter
// (for /metrics and the bounded-memory regression test).
func (h *watchHub) retained() (n int, evicted uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.ring), h.evicted
}

// watchEvent is one NDJSON line of the feed: either an epoch diff
// (Resync false, Epoch+Changes set) or a resync instruction (Resync
// true, Epoch = the last epoch whose diff the hub had published; the
// stream continues at Epoch+1). The tags define the wire bytes;
// chunkWriter.watchEvent (encode.go) writes them without reflection.
type watchEvent struct {
	Resync  bool              `json:"resync,omitempty"`
	Epoch   uint64            `json:"epoch"`
	Changes []PlacementChange `json:"changes,omitempty"`
}

// handleWatch streams epoch diffs as application/x-ndjson. ?from=N
// resumes at epoch N (the first diff wanted, i.e. one past the epoch
// the client's table is at); omitted or 0 means "only changes from
// now on". A from beyond the next epoch this process will publish is a
// 400: this daemon provably never produced the client's position, which
// is the signature of a consumer resuming across a daemon restart after
// epochs reset — it must re-bootstrap, and a silent resync here would
// mask the restart (docs/API.md documents the error, docs/REPLICATION.md
// the recovery). When requested epochs are merely no longer retained the
// stream starts with {"resync":true,"epoch":E}: re-read full state
// (batch lookup, stamped with some epoch E' ≥ E), then keep consuming,
// skipping diffs with epoch ≤ E'. The handler never touches the
// adaptation state lock.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	var from uint64
	if raw := r.URL.Query().Get("from"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			readplane.WriteError(w, http.StatusBadRequest, fmt.Errorf("from %q: %w", raw, err))
			return
		}
		from = v
	}
	if next := s.hub.nextEpoch(); from > next {
		// NOTE a benign race: a client that just read epoch E can ask
		// from=E+1 while the publisher has stored the routing snapshot
		// but not yet handed the hub its diff (next still E). The window
		// is nanoseconds inside one publish; clients that see this 400
		// should confirm against /v1/stats routing_epoch + instance
		// before concluding the daemon restarted (the replica does).
		readplane.WriteError(w, http.StatusBadRequest, fmt.Errorf(
			"from=%d is ahead of this daemon's next epoch %d; epochs are per-process, so the daemon has likely restarted — re-bootstrap from POST /v1/placements and resume from the epoch it returns", from, next))
		return
	}
	if from == 0 {
		// "Only changes from now on": resume at the hub's own next
		// epoch. Not Routing().Epoch+1 — the routing snapshot is stored
		// a moment before the hub learns its diff during a publish, and
		// a from beyond hub.next would greet the fresh consumer with a
		// spurious resync.
		from = s.hub.nextEpoch()
	}

	flusher, ok := w.(http.Flusher)
	if !ok {
		readplane.WriteError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by connection"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	s.watchers.Add(1)
	defer s.watchers.Add(-1)

	// Every event write runs under a write deadline: a dead or stalled
	// consumer TCP connection produces no read-side signal (ctx.Done only
	// fires on clean disconnects), so without the deadline one wedged
	// peer would pin this handler goroutine — and its diff backlog —
	// forever. A deadline miss drops the subscriber; it can reconnect and
	// resync like any lagging consumer.
	rc := http.NewResponseController(w)
	deadline := s.cfg.WatchWriteTimeout
	if deadline == 0 {
		deadline = DefaultWatchWriteTimeout
	}
	cw := newChunkWriter(w)
	write := func(ev watchEvent) bool {
		if deadline > 0 {
			rc.SetWriteDeadline(time.Now().Add(deadline)) //nolint:errcheck // unsupported writers just keep no deadline
		}
		if err := cw.watchEvent(ev); err != nil {
			s.watchDropped.Add(1)
			return false
		}
		return true
	}
	ctx := r.Context()
	for {
		// Register for wakeup BEFORE checking the ring: a diff published
		// between since() and the select would otherwise be missed.
		wakeup := s.hub.wait()
		diffs, next, needResync := s.hub.since(from)
		if needResync {
			s.watchResyncs.Add(1)
			// Stamp the resync with next−1 and resume from next, both
			// read in one critical section. The write may block on a
			// slow consumer while the hub keeps publishing; whatever it
			// publishes meanwhile is then served as consecutive diffs
			// from next, or, if already evicted, as another resync.
			if !write(watchEvent{Resync: true, Epoch: next - 1}) {
				return
			}
			flusher.Flush()
			from = next
			continue
		}
		for _, d := range diffs {
			if !write(watchEvent{Epoch: d.Epoch, Changes: d.Changes}) {
				return // consumer dead, stalled past the deadline, or gone
			}
			s.watchEvents.Add(1)
			from = d.Epoch + 1
		}
		if len(diffs) > 0 {
			flusher.Flush()
			continue // the ring may have advanced while we wrote
		}
		select {
		case <-ctx.Done():
			return
		case <-wakeup:
		}
	}
}
