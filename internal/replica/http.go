package replica

// This file is the replica's HTTP read surface: the same read endpoints
// as the primary (GET /v1/placement/{vertex}, POST /v1/placements batch
// lookups, /v1/stats, /healthz, /metrics) answered from the replica's
// own table, so a client or load balancer can point at either process
// without caring which. What a replica deliberately does NOT serve:
// mutations, checkpoints, the watch feed, and bootstrap pages — replicas
// replicate from the primary, never from each other (docs/REPLICATION.md
// explains why chained replication is out of scope).

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"xdgp/internal/graph"
)

// maxBatchVertices mirrors the primary's per-request batch-lookup cap so
// a client sharding strategy works unchanged against either tier.
const maxBatchVertices = 100_000

// maxBatchBody bounds the batch-lookup request body, same as the
// primary's (IDs are ≤20 bytes of JSON each).
const maxBatchBody = 4 << 20

// routes builds the replica's endpoint table.
func (r *Replica) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/placement/{vertex}", r.handlePlacement)
	mux.HandleFunc("POST /v1/placements", r.handleBatchPlacements)
	mux.HandleFunc("GET /v1/stats", r.handleStats)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	return mux
}

// ServeHTTP serves the replica read API; Replica is a plain
// http.Handler, so it mounts under any router or test server.
func (r *Replica) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mux.ServeHTTP(w, req)
}

// notServing answers a read that arrived before the replica has a
// servable table (bootstrapping, or a bootstrap seam not yet healed).
// 503 with Retry-After tells load balancers and clients this is a
// warming replica, not a missing vertex.
func (r *Replica) notServing(w http.ResponseWriter) {
	r.notReady.Add(1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable,
		fmt.Errorf("replica is not serving yet (%s); retry shortly or read the primary", r.State()))
}

func (r *Replica) handlePlacement(w http.ResponseWriter, req *http.Request) {
	raw := req.PathValue("vertex")
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("vertex %q: %w", raw, err))
		return
	}
	if err := graph.CheckVertexID(id); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	t := r.cur.Load()
	if !t.servable() {
		r.notServing(w)
		return
	}
	r.reads.Add(1)
	p := t.frozen.Of(graph.VertexID(id))
	if p < 0 {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("vertex %d is not placed at epoch %d (unknown, removed, or newer than this replica)", id, t.epoch))
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{
		"vertex":    id,
		"partition": int64(p),
	})
}

// batchRequest is the replica's view of the POST /v1/placements body.
// Cursor/limit (the primary's bootstrap-page form) is recognised only to
// be refused: replicas are leaves of the replication topology.
type batchRequest struct {
	Vertices []int64 `json:"vertices"`
	Cursor   *int64  `json:"cursor,omitempty"`
	Limit    int64   `json:"limit,omitempty"`
}

// batchPlacement is one entry of a batch-lookup response, wire-identical
// to the primary's.
type batchPlacement struct {
	Vertex    int64 `json:"vertex"`
	Partition int64 `json:"partition"`
}

func (r *Replica) handleBatchPlacements(w http.ResponseWriter, req *http.Request) {
	req.Body = http.MaxBytesReader(w, req.Body, maxBatchBody)
	var body batchRequest
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return
	}
	if body.Cursor != nil || body.Limit != 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf(
			"replicas do not serve bootstrap pages; page the primary instead (replicas replicate from the primary, not from each other)"))
		return
	}
	if len(body.Vertices) > maxBatchVertices {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%d vertices exceeds the per-request maximum %d; shard the lookup", len(body.Vertices), maxBatchVertices))
		return
	}
	for i, raw := range body.Vertices {
		if err := graph.CheckVertexID(raw); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("vertex %d: %w", i, err))
			return
		}
	}
	t := r.cur.Load()
	if !t.servable() {
		r.notServing(w)
		return
	}
	// Like the primary, the whole response is answered from the one table
	// pinned above: mutually consistent at a single epoch.
	placements := make([]batchPlacement, len(body.Vertices))
	for i, raw := range body.Vertices {
		placements[i] = batchPlacement{Vertex: raw, Partition: int64(t.frozen.Of(graph.VertexID(raw)))}
	}
	r.reads.Add(uint64(len(placements)))
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":      t.epoch,
		"placements": placements,
	})
}

// Stats is the body of the replica's GET /v1/stats — the replica-side
// counterpart of the primary's stats, centred on replication health:
// where the table is (epoch), where the primary is (upstream_epoch), and
// how the gap between them is trending (lag, resyncs, reconnects).
type Stats struct {
	// State is the replication state: "bootstrapping", "syncing" or
	// "serving".
	State string `json:"state"`
	// Healthy mirrors /healthz; Reason says why when false.
	Healthy bool   `json:"healthy"`
	Reason  string `json:"reason"`
	// Epoch is the epoch the served table is exact at (0 before the
	// first bootstrap completes).
	Epoch uint64 `json:"epoch"`
	// Upstream identifies the primary: its base URL, its last polled
	// routing epoch, and its instance token (empty until a poll or
	// bootstrap succeeds).
	Upstream         string `json:"upstream"`
	UpstreamEpoch    uint64 `json:"upstream_epoch"`
	UpstreamInstance string `json:"upstream_instance"`
	// LagEpochs is Epoch's distance behind UpstreamEpoch; MaxLagEpochs
	// is the health gate it is compared against (-1 = gate disabled).
	LagEpochs    uint64 `json:"lag_epochs"`
	MaxLagEpochs int    `json:"max_lag_epochs"`
	// Vertices/Slots/K describe the served table (all 0 before the first
	// bootstrap).
	Vertices int64 `json:"vertices"`
	Slots    int64 `json:"slots"`
	K        int   `json:"k"`
	// Lifecycle counters, also exported as apartr_* /metrics.
	Bootstraps       uint64 `json:"bootstraps"`
	BootstrapPages   uint64 `json:"bootstrap_pages"`
	Resyncs          uint64 `json:"resyncs"`
	Reconnects       uint64 `json:"reconnects"`
	EventsApplied    uint64 `json:"events_applied"`
	ChangesApplied   uint64 `json:"changes_applied"`
	UpstreamPollFail uint64 `json:"upstream_poll_failures"`
	ReadsServed      uint64 `json:"reads_served"`
	ReadsNotReady    uint64 `json:"reads_not_ready"`
	// LastEventAgeSeconds is the age of the most recently applied watch
	// diff (-1 when none has been applied yet). High values are normal
	// on an idle primary; pair with lag_epochs before alerting.
	LastEventAgeSeconds float64 `json:"last_event_age_seconds"`
}

// Stats assembles the replica's current statistics snapshot.
func (r *Replica) Stats() Stats {
	healthy, reason := r.Healthy()
	st := Stats{
		State:            r.State().String(),
		Healthy:          healthy,
		Reason:           reason,
		Upstream:         r.cfg.Upstream,
		UpstreamEpoch:    r.upstreamEpoch.Load(),
		LagEpochs:        r.Lag(),
		MaxLagEpochs:     r.cfg.MaxLagEpochs,
		Bootstraps:       r.bootstraps.Load(),
		BootstrapPages:   r.pages.Load(),
		Resyncs:          r.resyncs.Load(),
		Reconnects:       r.reconnects.Load(),
		EventsApplied:    r.events.Load(),
		ChangesApplied:   r.changes.Load(),
		UpstreamPollFail: r.pollFailures.Load(),
		ReadsServed:      r.reads.Load(),
		ReadsNotReady:    r.notReady.Load(),
	}
	if inst := r.upstreamInstance.Load(); inst != nil {
		st.UpstreamInstance = *inst
	}
	if t := r.cur.Load(); t != nil {
		st.Epoch = t.epoch
		st.Vertices = int64(t.frozen.Assigned())
		st.Slots = int64(t.frozen.Slots())
		st.K = t.frozen.K()
	}
	st.LastEventAgeSeconds = -1
	if unx := r.lastEventUnixNano.Load(); unx != 0 {
		st.LastEventAgeSeconds = time.Since(time.Unix(0, unx)).Seconds()
	}
	return st
}

func (r *Replica) handleStats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.Stats())
}

func (r *Replica) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if healthy, reason := r.Healthy(); !healthy {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "unhealthy",
			"reason": reason,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics renders GET /metrics in the Prometheus text exposition
// format, hand-written like the primary's so the replica stays
// dependency-free. Everything here is O(1): atomics and table header
// fields off one pointer load.
func (r *Replica) handleMetrics(w http.ResponseWriter, req *http.Request) {
	var b strings.Builder

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	st := r.Stats()

	stateV := 0.0
	switch r.State() {
	case StateSyncing:
		stateV = 1
	case StateServing:
		stateV = 2
	}
	gauge("apartr_state", "Replication state: 0 bootstrapping, 1 syncing, 2 serving.", stateV)
	healthyV := 0.0
	if st.Healthy {
		healthyV = 1
	}
	gauge("apartr_healthy", "1 when /healthz reports healthy (serving and within the lag gate).", healthyV)
	gauge("apartr_epoch", "Epoch the served table is exact at.", float64(st.Epoch))
	gauge("apartr_upstream_epoch", "Primary routing epoch at the last successful poll.", float64(st.UpstreamEpoch))
	gauge("apartr_lag_epochs", "Epochs the served table trails the polled primary epoch (⚠ above the -max-lag-epochs gate).", float64(st.LagEpochs))
	gauge("apartr_vertices", "Vertices placed in the served table.", float64(st.Vertices))
	gauge("apartr_last_event_age_seconds", "Age of the most recently applied watch diff (-1 before any; high is normal on an idle primary).", st.LastEventAgeSeconds)

	counter("apartr_bootstraps_total", "Completed table bootstraps (first sync plus every resync).", st.Bootstraps)
	counter("apartr_bootstrap_pages_total", "Bootstrap pages fetched from the primary.", st.BootstrapPages)
	counter("apartr_resyncs_total", "Full re-bootstraps forced by ring eviction, primary restart, or epoch regression (⚠ if growing steadily).", st.Resyncs)
	counter("apartr_reconnects_total", "Watch stream reconnect attempts after a transport drop.", st.Reconnects)
	counter("apartr_watch_events_total", "Epoch diffs applied from the watch stream.", st.EventsApplied)
	counter("apartr_changes_applied_total", "Individual placement changes applied from diffs.", st.ChangesApplied)
	counter("apartr_upstream_poll_failures_total", "Failed polls of the primary's /v1/stats.", st.UpstreamPollFail)
	counter("apartr_reads_total", "Placement lookups served (single and batch entries).", st.ReadsServed)
	counter("apartr_not_ready_total", "Reads refused with 503 because no servable table was published yet.", st.ReadsNotReady)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, b.String())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort: headers already sent
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
