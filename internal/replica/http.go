package replica

// This file is the replica's HTTP surface: the placement reads of
// internal/readplane, the primary's own code, answered from the
// replica's table, plus its own /v1/stats, /healthz and /metrics. It
// serves no mutations, checkpoints, watch feed or bootstrap pages:
// replicas replicate from the primary, never from each other
// (docs/REPLICATION.md explains why).

import (
	"net/http"
	"time"

	"xdgp/internal/readplane"
)

// routes builds the replica's endpoint table.
func (r *Replica) routes() *http.ServeMux {
	mux := http.NewServeMux()
	r.plane.Register(mux)
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
		ReadsNotReady:    r.plane.NotReady.Load(),
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
	readplane.WriteJSON(w, http.StatusOK, r.Stats())
}

func (r *Replica) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if healthy, reason := r.Healthy(); !healthy {
		readplane.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "unhealthy",
			"reason": reason,
		})
		return
	}
	readplane.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics renders GET /metrics in the Prometheus text exposition
// format, hand-written like the primary's so the replica stays
// dependency-free. Everything here is O(1): atomics and table header
// fields off one pointer load.
func (r *Replica) handleMetrics(w http.ResponseWriter, req *http.Request) {
	var m readplane.Metrics
	st := r.Stats()

	stateV := 0.0
	switch r.State() {
	case StateSyncing:
		stateV = 1
	case StateServing:
		stateV = 2
	}
	m.Gauge("apartr_state", "Replication state: 0 bootstrapping, 1 syncing, 2 serving.", stateV)
	healthyV := 0.0
	if st.Healthy {
		healthyV = 1
	}
	m.Gauge("apartr_healthy", "1 when /healthz reports healthy (serving and within the lag gate).", healthyV)
	m.Gauge("apartr_epoch", "Epoch the served table is exact at.", float64(st.Epoch))
	m.Gauge("apartr_upstream_epoch", "Primary routing epoch at the last successful poll.", float64(st.UpstreamEpoch))
	m.Gauge("apartr_lag_epochs", "Epochs the served table trails the polled primary epoch (⚠ above the -max-lag-epochs gate).", float64(st.LagEpochs))
	m.Gauge("apartr_vertices", "Vertices placed in the served table.", float64(st.Vertices))
	m.Gauge("apartr_last_event_age_seconds", "Age of the most recently applied watch diff (-1 before any; high is normal on an idle primary).", st.LastEventAgeSeconds)

	m.Counter("apartr_bootstraps_total", "Completed table bootstraps (first sync plus every resync).", st.Bootstraps)
	m.Counter("apartr_bootstrap_pages_total", "Bootstrap pages fetched from the primary.", st.BootstrapPages)
	m.Counter("apartr_resyncs_total", "Full re-bootstraps forced by ring eviction, primary restart, or epoch regression (⚠ if growing steadily).", st.Resyncs)
	m.Counter("apartr_reconnects_total", "Watch stream reconnect attempts after a transport drop.", st.Reconnects)
	m.Counter("apartr_watch_events_total", "Epoch diffs applied from the watch stream.", st.EventsApplied)
	m.Counter("apartr_changes_applied_total", "Individual placement changes applied from diffs.", st.ChangesApplied)
	m.Counter("apartr_upstream_poll_failures_total", "Failed polls of the primary's /v1/stats.", st.UpstreamPollFail)
	m.Counter("apartr_reads_total", "Placement lookups served (single and batch entries).", st.ReadsServed)
	m.Counter("apartr_not_ready_total", "Reads refused with 503 because no servable table was published yet.", st.ReadsNotReady)
	m.Serve(w)
}
