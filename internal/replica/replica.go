// Package replica implements the read-replica serving plane behind
// cmd/apartr: a process that copies a primary apartd's routing table
// over its public HTTP API and then keeps the copy current, serving
// placement reads with the same lock-free path as the primary — one
// atomic pointer load plus one array read — while the primary remains
// the only writer. Replicas are how reads survive a daemon restart and
// how read throughput scales past one process (ROADMAP "Read-replica
// HA").
//
// The protocol is three phases, specified in docs/REPLICATION.md:
//
//   - Bootstrap: page the full table out of POST /v1/placements
//     (cursor+limit form, ≤100k-ID chunks), recording each page's epoch
//     and the primary's instance token.
//   - Tail: stream GET /v1/watch?from=N and apply each epoch diff to an
//     immutable partition.Frozen copy swapped in via atomic.Pointer.
//   - Resync: on a {"resync":true} event (diff ring eviction), an
//     instance-token change, an epoch regression or gap (primary
//     restart), or a watch line over maxWatchLine, throw the table away
//     and re-bootstrap. Counted in apartr_resyncs_total.
//
// Consistency contract, in one sentence: a replica serves some exact
// past epoch of its primary (never a torn mixture), with bounded
// staleness and no read-your-writes — see docs/REPLICATION.md for what
// that does and does not guarantee.
package replica

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// Config parameterises a replica. The zero value is invalid; set
// Upstream and take DefaultConfig for the rest.
type Config struct {
	// Upstream is the primary's base URL (e.g. "http://10.0.0.5:8080").
	// All bootstrap pages, watch streams and lag polls go there.
	Upstream string
	// PageSize is the ID-range width of one bootstrap page, at most
	// 100 000 (the primary's per-request ceiling). 0 means MaxPageSize.
	PageSize int
	// MaxLagEpochs flips /healthz unhealthy when the replica's applied
	// epoch trails the primary's routing epoch by more than this — the
	// signal a fronting load balancer uses to drop a stale replica.
	// 0 means DefaultMaxLagEpochs; negative disables the lag gate.
	MaxLagEpochs int
	// LagPollEvery is how often the replica polls the primary's
	// /v1/stats for its current epoch (the lag denominator). 0 means
	// DefaultLagPoll.
	LagPollEvery time.Duration
	// ReconnectMin/ReconnectMax bound the jittered exponential backoff
	// between upstream connection attempts. Zeroes mean
	// DefaultReconnectMin/DefaultReconnectMax.
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// Client overrides the HTTP client (tests inject one; nil means a
	// dedicated client with sane keep-alive limits). Watch streams are
	// long-lived, so the client must not set a global timeout.
	Client *http.Client
}

// MaxPageSize is the largest bootstrap page the primary accepts — its
// POST /v1/placements per-request ceiling.
const MaxPageSize = 100_000

// DefaultMaxLagEpochs is the health gate used when Config.MaxLagEpochs
// is zero: half the primary's default watch ring, so an unhealthy
// replica still has headroom to catch up incrementally before eviction
// forces a full resync.
const DefaultMaxLagEpochs = 128

// DefaultLagPoll is the default upstream epoch-poll period.
const DefaultLagPoll = time.Second

// DefaultReconnectMin is the default floor of the reconnect backoff.
const DefaultReconnectMin = 100 * time.Millisecond

// DefaultReconnectMax is the default ceiling of the reconnect backoff.
const DefaultReconnectMax = 5 * time.Second

// DefaultConfig returns the standard replica setting for an upstream.
func DefaultConfig(upstream string) Config {
	return Config{
		Upstream:     upstream,
		PageSize:     MaxPageSize,
		MaxLagEpochs: DefaultMaxLagEpochs,
		LagPollEvery: DefaultLagPoll,
		ReconnectMin: DefaultReconnectMin,
		ReconnectMax: DefaultReconnectMax,
	}
}

func (c Config) validate() error {
	if c.Upstream == "" {
		return fmt.Errorf("replica: Upstream is required")
	}
	if c.PageSize < 0 || c.PageSize > MaxPageSize {
		return fmt.Errorf("replica: PageSize must be in [0, %d], got %d", MaxPageSize, c.PageSize)
	}
	return nil
}

// State names the replica's position in the replication state machine
// (docs/REPLICATION.md has the full diagram).
type State int32

// The replication states. A replica starts Bootstrapping, passes through
// Syncing when its bootstrap pages straddled more than one epoch (the
// table is a provisional mixture until the watch replay heals the seam),
// and Serving thereafter — resyncs route back through Bootstrapping.
const (
	// StateBootstrapping: paging the table out of the primary; reads
	// are answered 503.
	StateBootstrapping State = iota
	// StateSyncing: bootstrap pages straddled epochs [lo,hi]; the watch
	// replay from lo+1 has not yet reached hi, so the table may be a
	// mixture and reads are still answered 503.
	StateSyncing
	// StateServing: the table is an exact copy of some primary epoch;
	// reads are served lock-free. Health additionally requires the lag
	// gate (Config.MaxLagEpochs) to pass.
	StateServing
)

// String returns the state's wire name (used by /v1/stats and tests).
func (s State) String() string {
	switch s {
	case StateBootstrapping:
		return "bootstrapping"
	case StateSyncing:
		return "syncing"
	case StateServing:
		return "serving"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// table is one immutable published generation of the replica's routing
// state. Handlers load it with one atomic pointer read; the run loop is
// the only writer. epoch < floor marks a bootstrap whose pages straddled
// epochs and whose seam the watch replay has not yet healed — not
// servable.
type table struct {
	frozen   *partition.Frozen
	epoch    uint64 // epoch this table is exact at (lowest bootstrap page epoch until healed)
	floor    uint64 // highest bootstrap page epoch; servable once epoch ≥ floor
	instance string // upstream incarnation that produced it
}

// servable reports whether the table is an exact copy of one primary
// epoch (the seam, if any, has been healed by the watch replay).
func (t *table) servable() bool { return t != nil && t.epoch >= t.floor }

// Replica is the replication engine plus its HTTP read surface.
// Construct with New, Start it, serve its handler, Stop on shutdown.
type Replica struct {
	cfg    Config
	client *http.Client

	// cur is the published table: nil until the first bootstrap
	// completes, then immutable generations swapped by the run loop.
	cur   atomic.Pointer[table]
	state atomic.Int32

	// Upstream view, maintained by the lag poller (epoch, instance) and
	// the tail loop (lastEventUnixNano).
	upstreamEpoch     atomic.Uint64
	upstreamInstance  atomic.Pointer[string]
	lastEventUnixNano atomic.Int64

	// Monotonic counters, exported by /metrics (apartr_*).
	bootstraps   atomic.Uint64 // bootstrap attempts that completed
	pages        atomic.Uint64 // bootstrap pages fetched
	resyncs      atomic.Uint64 // re-bootstraps after the first (eviction, restart, regression)
	reconnects   atomic.Uint64 // watch reconnect attempts after a drop
	events       atomic.Uint64 // watch diff events applied
	changes      atomic.Uint64 // placement changes applied
	pollFailures atomic.Uint64 // upstream stat-poll failures
	reads        atomic.Uint64 // placement lookups served
	notReady     atomic.Uint64 // reads refused with 503 (no servable table)

	// fallbacks counts watch lines and bootstrap pages the canonical
	// scanner did not recognise and encoding/json decoded instead
	// (wire.go). Not exported: a test pins it at 0 against a real
	// primary, so an encoder change cannot silently fall back.
	fallbacks atomic.Uint64

	mux      *http.ServeMux
	started  atomic.Bool
	stopOnce sync.Once
	cancel   context.CancelFunc
	done     chan struct{}
	pollDone chan struct{}

	// testAfterPage, when set (package tests only), runs after every
	// bootstrap page fetch — the hook that makes epoch seams and ring
	// evictions deterministic instead of timing-dependent.
	testAfterPage func(cursor int64)
}

// New builds a replica for cfg. It performs no I/O; Start begins the
// bootstrap.
func New(cfg Config) (*Replica, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = MaxPageSize
	}
	if cfg.MaxLagEpochs == 0 {
		cfg.MaxLagEpochs = DefaultMaxLagEpochs
	}
	if cfg.LagPollEvery == 0 {
		cfg.LagPollEvery = DefaultLagPoll
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = DefaultReconnectMin
	}
	if cfg.ReconnectMax < cfg.ReconnectMin {
		cfg.ReconnectMax = DefaultReconnectMax
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        4,
			MaxIdleConnsPerHost: 4,
		}}
	}
	r := &Replica{
		cfg:      cfg,
		client:   client,
		done:     make(chan struct{}),
		pollDone: make(chan struct{}),
	}
	r.state.Store(int32(StateBootstrapping))
	r.mux = r.routes()
	return r, nil
}

// Config returns the resolved configuration.
func (r *Replica) Config() Config { return r.cfg }

// Start launches the replication run loop (bootstrap → tail → resync)
// and the upstream lag poller. Idempotent.
func (r *Replica) Start() {
	if !r.started.CompareAndSwap(false, true) {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go func() { defer close(r.done); r.run(ctx) }()
	go func() { defer close(r.pollDone); r.pollLoop(ctx) }()
}

// Stop terminates the run loop and the poller and waits for both.
// In-flight upstream requests are cancelled; the read surface keeps
// answering from the last published table until the process exits.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() {
		if r.started.Load() {
			r.cancel()
			<-r.done
			<-r.pollDone
		}
	})
}

// State returns the replica's current replication state.
func (r *Replica) State() State { return State(r.state.Load()) }

// Snapshot returns the currently served table and its epoch, with
// ok=false while no servable table is published (bootstrapping, or a
// bootstrap seam not yet healed). The Frozen is immutable; callers may
// read it indefinitely without synchronization.
func (r *Replica) Snapshot() (frozen *partition.Frozen, epoch uint64, ok bool) {
	t := r.cur.Load()
	if !t.servable() {
		return nil, 0, false
	}
	return t.frozen, t.epoch, true
}

// Placement returns the partition of v in the replica's current table —
// the same one-atomic-load-one-array-read path as the primary. ok=false
// means v is not placed there OR the replica has no servable table yet;
// HTTP callers can distinguish the two (404 vs 503), in-process callers
// should check Snapshot first when it matters.
func (r *Replica) Placement(v int64) (p int64, ok bool) {
	t := r.cur.Load()
	if !t.servable() {
		return int64(partition.None), false
	}
	id := t.frozen.Of(graph.VertexID(v))
	return int64(id), id != partition.None
}

// Lag returns the replica's staleness in epochs relative to the last
// polled upstream epoch (0 when the poll has never succeeded, when the
// upstream is a different incarnation than the table — a resync is
// already on its way — or when the replica is ahead of a stale poll).
func (r *Replica) Lag() uint64 {
	t := r.cur.Load()
	if t == nil {
		return 0
	}
	up := r.upstreamEpoch.Load()
	if inst := r.upstreamInstance.Load(); inst == nil || *inst != t.instance {
		return 0
	}
	if up <= t.epoch {
		return 0
	}
	return up - t.epoch
}

// Healthy reports whether a load balancer should route reads here, with
// a human-readable reason when not: the replica must be Serving and,
// when the lag gate is enabled, within MaxLagEpochs of the last polled
// upstream epoch. An unreachable upstream does NOT fail health — every
// replica serving last-known-good state is the point of the replica
// tier when the primary is down (docs/REPLICATION.md).
func (r *Replica) Healthy() (bool, string) {
	if st := r.State(); st != StateServing {
		return false, st.String()
	}
	if r.cfg.MaxLagEpochs >= 0 {
		if lag := r.Lag(); lag > uint64(r.cfg.MaxLagEpochs) {
			return false, fmt.Sprintf("lagging %d epochs (max %d)", lag, r.cfg.MaxLagEpochs)
		}
	}
	return true, "ok"
}

// --- the run loop: bootstrap → tail → resync -------------------------------

// run drives the replication state machine until ctx is cancelled.
// Transient upstream errors back off with jitter and retry; protocol
// signals (resync event, instance change, epoch regression) route back
// through bootstrap.
func (r *Replica) run(ctx context.Context) {
	attempt := 0
	first := true
	for ctx.Err() == nil {
		t, err := r.bootstrap(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			r.sleep(ctx, r.backoff(attempt))
			attempt++
			continue
		}
		attempt = 0
		r.bootstraps.Add(1)
		if !first {
			r.resyncs.Add(1)
		}
		first = false
		r.publish(t)

		// Tail until the protocol demands a re-bootstrap.
		for ctx.Err() == nil {
			outcome := r.tail(ctx)
			switch outcome {
			case tailResync:
				// Ring eviction, instance change, epoch regression or
				// gap, or an unreadably long line: the incremental feed
				// cannot reconstruct our table.
			case tailDisconnect:
				// Transport failure: reconnect the stream and resume
				// from our current epoch — no data was lost.
				r.reconnects.Add(1)
				r.sleep(ctx, r.backoff(attempt))
				attempt++
				continue
			case tailOK:
				// Clean retry (e.g. transient 400 race); reconnect
				// without counting a drop.
				continue
			}
			break
		}
	}
}

// maxWatchLine caps one watch line (64 MiB ≈ 1.6M changes). A longer
// line forces a resync, since reconnecting would meet it again. A
// variable so tests can lower it.
var maxWatchLine = 64 << 20

// tailOutcome classifies why one tail attempt ended.
type tailOutcome int

const (
	tailOK         tailOutcome = iota // benign; reconnect and resume
	tailDisconnect                    // transport drop; backoff then resume
	tailResync                        // protocol signal; re-bootstrap
)

// bootstrap pages the primary's full table. The pages need not all come
// from one epoch: the result records the lowest and highest page epochs
// as (epoch, floor), and the caller's watch replay from epoch+1 provably
// heals the seam by the time it has applied floor (REPLICATION.md walks
// the argument). An instance change mid-bootstrap restarts the paging —
// mixed-incarnation pages can never be reconciled.
func (r *Replica) bootstrap(ctx context.Context) (*table, error) {
	r.state.Store(int32(StateBootstrapping))
restart:
	var (
		entries  []partition.Change
		cursor   int64
		lo, hi   uint64
		instance string
		k        int
		page     pageHeader
		err      error
	)
	for {
		page, entries, err = r.fetchPage(ctx, cursor, entries)
		if err != nil {
			return nil, err
		}
		r.pages.Add(1)
		if instance == "" {
			instance, k, lo, hi = page.instance, page.k, page.epoch, page.epoch
		} else if page.instance != instance {
			// The primary restarted underneath the bootstrap; its new
			// incarnation's table shares nothing with the pages so far.
			goto restart
		}
		if page.epoch < lo {
			lo = page.epoch
		}
		if page.epoch > hi {
			hi = page.epoch
		}
		if r.testAfterPage != nil {
			r.testAfterPage(cursor)
		}
		if page.nextCursor < 0 {
			break
		}
		cursor = page.nextCursor
	}
	return &table{
		frozen:   partition.NewFrozen(k).Apply(entries),
		epoch:    lo,
		floor:    hi,
		instance: instance,
	}, nil
}

// fetchPage posts one cursor+limit page request and returns its header
// with the page's placements appended to entries.
func (r *Replica) fetchPage(ctx context.Context, cursor int64, entries []partition.Change) (pageHeader, []partition.Change, error) {
	reqBody, err := json.Marshal(map[string]int64{
		"cursor": cursor,
		"limit":  int64(r.cfg.PageSize),
	})
	if err != nil {
		return pageHeader{}, entries, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		r.cfg.Upstream+"/v1/placements", bytes.NewReader(reqBody))
	if err != nil {
		return pageHeader{}, entries, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return pageHeader{}, entries, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return pageHeader{}, entries, fmt.Errorf("page cursor=%d: status %d: %s", cursor, resp.StatusCode, raw)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return pageHeader{}, entries, fmt.Errorf("page cursor=%d: %w", cursor, err)
	}
	page, out, fast, err := decodePage(body, entries)
	if !fast {
		r.fallbacks.Add(1)
	}
	if err != nil {
		return pageHeader{}, entries, fmt.Errorf("page cursor=%d: %w", cursor, err)
	}
	if page.instance == "" || page.k < 1 {
		return pageHeader{}, entries, fmt.Errorf("page cursor=%d: malformed header (instance=%q k=%d)", cursor, page.instance, page.k)
	}
	return page, out, nil
}

// tail opens the watch stream at the published table's epoch+1 and
// applies diffs until the stream ends or the protocol demands a resync.
func (r *Replica) tail(ctx context.Context) tailOutcome {
	t := r.cur.Load()
	from := t.epoch + 1
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/watch?from=%d", r.cfg.Upstream, from), nil)
	if err != nil {
		return tailDisconnect
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return tailDisconnect
	}
	defer resp.Body.Close()

	if inst := resp.Header.Get("X-Apartd-Instance"); inst != "" && inst != t.instance {
		// A different process answered: the primary restarted, and its
		// epochs share nothing with ours — even if the numbers happen
		// to line up. This check is what closes the "restarted primary
		// re-climbed past our epoch" hole an epoch comparison misses.
		// Do NOT drain the body here: on a 200 this is an open-ended
		// watch stream that may never send another byte, so a "drain
		// for keep-alive" read blocks the whole run loop forever (the
		// smoke test caught exactly that). Closing unread is the point.
		return tailResync
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusBadRequest:
		// from is ahead of the primary's next epoch. Same instance, so
		// this is the benign publish race (routing momentarily leads the
		// watch hub), not a restart: confirm against the polled epoch
		// and retry. If the poll agrees the primary is genuinely behind
		// our table — same instance, lower epoch — something is deeply
		// wrong; re-bootstrap to be safe.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) //nolint:errcheck
		if up, ok := r.pollUpstream(ctx); ok && up+1 < from {
			return tailResync
		}
		r.sleep(ctx, r.cfg.ReconnectMin)
		return tailOK
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) //nolint:errcheck
		return tailDisconnect
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, min(64<<10, maxWatchLine)), maxWatchLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		ev, fast, err := decodeWatchLine(line)
		if !fast {
			r.fallbacks.Add(1)
		}
		if err != nil {
			return tailDisconnect
		}
		if ev.resync {
			return tailResync
		}
		if ev.epoch > r.cur.Load().epoch+1 {
			// Diffs within one stream are consecutive; a jump means the
			// feed skipped epochs this table never saw. Never apply
			// across the gap — re-bootstrap instead.
			return tailResync
		}
		r.apply(ev)
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		// This epoch's diff can never be read: reconnecting at the same
		// epoch would fail on the same line until the primary's ring
		// evicts it, which on an idle primary never happens. Re-bootstrap
		// past it instead.
		return tailResync
	}
	return tailDisconnect
}

// apply folds one epoch diff into a fresh table generation and publishes
// it. Diffs at or below the current epoch are skipped (idempotence); tail
// has already refused any diff beyond the next epoch, so anything newer
// advances the table exactly one epoch.
func (r *Replica) apply(ev watchLine) {
	t := r.cur.Load()
	if ev.epoch <= t.epoch {
		return
	}
	r.publish(&table{
		frozen:   t.frozen.Apply(ev.changes),
		epoch:    ev.epoch,
		floor:    t.floor,
		instance: t.instance,
	})
	r.events.Add(1)
	r.changes.Add(uint64(len(ev.changes)))
	r.lastEventUnixNano.Store(time.Now().UnixNano())
}

// publish swaps the table in and keeps the state gauge consistent with
// its servability.
func (r *Replica) publish(t *table) {
	r.cur.Store(t)
	if t.servable() {
		r.state.Store(int32(StateServing))
	} else {
		r.state.Store(int32(StateSyncing))
	}
}

// --- upstream lag poll -----------------------------------------------------

// pollLoop samples the primary's /v1/stats on a timer so the lag gate
// has a denominator even when the watch stream is quiet or down.
func (r *Replica) pollLoop(ctx context.Context) {
	tick := time.NewTicker(r.cfg.LagPollEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			r.pollUpstream(ctx) //nolint:errcheck // failures are counted, not fatal
		}
	}
}

// pollUpstream fetches the primary's current routing epoch and instance
// token, updating the replica's upstream view on success.
func (r *Replica) pollUpstream(ctx context.Context) (epoch uint64, ok bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.Upstream+"/v1/stats", nil)
	if err != nil {
		r.pollFailures.Add(1)
		return 0, false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.pollFailures.Add(1)
		return 0, false
	}
	defer resp.Body.Close()
	var st struct {
		Instance     string `json:"instance"`
		RoutingEpoch uint64 `json:"routing_epoch"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil {
		r.pollFailures.Add(1)
		return 0, false
	}
	r.upstreamEpoch.Store(st.RoutingEpoch)
	r.upstreamInstance.Store(&st.Instance)
	return st.RoutingEpoch, true
}

// --- small helpers ---------------------------------------------------------

// backoff returns the jittered exponential delay for the given attempt:
// min·2^attempt scaled by a uniform [0.5, 1.5) factor, capped at max —
// so a fleet of replicas losing the same primary does not reconnect in
// lockstep.
func (r *Replica) backoff(attempt int) time.Duration {
	d := r.cfg.ReconnectMin << min(attempt, 20)
	if d > r.cfg.ReconnectMax || d <= 0 {
		d = r.cfg.ReconnectMax
	}
	return time.Duration((0.5 + rand.Float64()) * float64(d))
}

// sleep waits d or until ctx is cancelled.
func (r *Replica) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
