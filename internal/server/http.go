package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"strconv"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
	"xdgp/internal/readplane"
)

// This file is the daemon's HTTP surface. All request and response
// bodies are JSON; errors come back as {"error": "..."} with a 4xx/5xx
// status. docs/API.md is the complete endpoint reference, including the
// epoch-consistency semantics of the read endpoints.

// maxIngestBody bounds one POST /v1/mutations body (64 MiB ≈ 1.5M
// mutations) so a runaway client cannot exhaust memory in one request.
const maxIngestBody = 64 << 20

// MutationJSON is the wire form of one mutation. Op is one of
// "add-vertex", "remove-vertex", "add-edge", "remove-edge"; U is the
// vertex for vertex ops and the first endpoint for edge ops, V the
// second endpoint.
type MutationJSON struct {
	Op string `json:"op"`
	U  int64  `json:"u"`
	V  int64  `json:"v"`
}

// IngestRequest is the body of POST /v1/mutations.
type IngestRequest struct {
	Mutations []MutationJSON `json:"mutations"`
}

// ToMutation validates and converts the wire form.
func (m MutationJSON) ToMutation() (graph.Mutation, error) {
	var kind graph.MutationKind
	needV := false
	switch m.Op {
	case "add-vertex":
		kind = graph.MutAddVertex
	case "remove-vertex":
		kind = graph.MutRemoveVertex
	case "add-edge":
		kind = graph.MutAddEdge
		needV = true
	case "remove-edge":
		kind = graph.MutRemoveEdge
		needV = true
	default:
		return graph.Mutation{}, fmt.Errorf("unknown op %q", m.Op)
	}
	if err := graph.CheckVertexID(m.U); err != nil {
		return graph.Mutation{}, fmt.Errorf("u: %w", err)
	}
	mu := graph.Mutation{Kind: kind, U: graph.VertexID(m.U)}
	if needV {
		if err := graph.CheckVertexID(m.V); err != nil {
			return graph.Mutation{}, fmt.Errorf("v: %w", err)
		}
		mu.V = graph.VertexID(m.V)
	}
	return mu, nil
}

// routes builds the daemon's endpoint table.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/mutations", s.handleMutations)
	s.plane.Register(mux)
	mux.HandleFunc("GET /v1/watch", s.handleWatch)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/tick", s.handleTick)
	mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// ServeHTTP serves the daemon API; Server is a plain http.Handler, so it
// mounts under any router or test server. Every response carries the
// X-Apartd-Instance header (the process-incarnation token): replication
// clients compare it across requests to detect upstream restarts, since
// epochs alone are ambiguous across incarnations (docs/REPLICATION.md).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("X-Apartd-Instance", s.instance)
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleMutations(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxIngestBody)
	var req IngestRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		readplane.WriteError(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return
	}
	batch := make(graph.Batch, 0, len(req.Mutations))
	for i, m := range req.Mutations {
		mu, err := m.ToMutation()
		if err != nil {
			readplane.WriteError(w, http.StatusBadRequest, fmt.Errorf("mutation %d: %w", i, err))
			return
		}
		batch = append(batch, mu)
	}
	queued, ok := s.Enqueue(batch)
	if !ok {
		if err := s.ClusterError(); err != nil {
			readplane.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("cluster fault, mutations refused until restart: %w", err))
			return
		}
		hint := s.RetryAfterHint()
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(hint.Seconds()))))
		readplane.WriteError(w, http.StatusTooManyRequests,
			fmt.Errorf("ingest queue full (%d mutations pending); retry after %s", queued, hint))
		return
	}
	readplane.WriteJSON(w, http.StatusAccepted, map[string]int{
		"accepted": len(batch),
		"queued":   queued,
	})
}

// handleTick serves POST /v1/tick: one synchronous coalescing tick, the
// drive shaft of manual tick mode (TickEvery ≤ 0). With a background
// loop running the endpoint refuses — interleaving externally driven
// ticks with the timer's would make tick cadence (and in cluster mode,
// round pacing) unobservable to the operator. In cluster mode the call
// blocks until every shard ticks the same round, so operators invoke it
// on all shards together (ci/cluster-smoke.sh does exactly that).
func (s *Server) handleTick(w http.ResponseWriter, r *http.Request) {
	if s.cfg.TickEvery > 0 {
		readplane.WriteError(w, http.StatusConflict,
			fmt.Errorf("tick loop is automatic (tick=%s); manual ticks need the daemon started with -tick 0", s.cfg.TickEvery))
		return
	}
	res := s.TickNow()
	if err := s.ClusterError(); err != nil {
		readplane.WriteError(w, http.StatusInternalServerError, fmt.Errorf("cluster mode failed: %w", err))
		return
	}
	readplane.WriteJSON(w, http.StatusOK, res)
}

// BatchLookup answers a batch of placement lookups through the read
// plane: from one routing snapshot, pinned by one atomic load and never
// the state lock, with each lookup recorded in the heat table.
func (s *Server) BatchLookup(ids []graph.VertexID) readplane.BatchResponse {
	resp, _ := s.plane.Lookup(ids) // the primary's plane always has a table
	return resp
}

// PageResponse is the body of a paged POST /v1/placements reply (the
// cursor+limit request form). One page is answered from ONE routing
// snapshot, like any batch read; Epoch stamps which one. Slots is the
// exclusive upper bound on vertex IDs the snapshot covers — the ID space
// a full bootstrap must page through — and NextCursor is the cursor of
// the following page, -1 when this page was the last. Instance is the
// serving process's incarnation token, duplicated from the
// X-Apartd-Instance header so paging clients need only the JSON. The
// handler does not build this struct: writePage (encode.go) writes its
// JSON straight from the snapshot.
type PageResponse struct {
	Epoch      uint64                     `json:"epoch"`
	Instance   string                     `json:"instance"`
	K          int                        `json:"k"`
	Slots      int64                      `json:"slots"`
	NextCursor int64                      `json:"next_cursor"`
	Placements []readplane.BatchPlacement `json:"placements"`
}

// servePage is the read plane's Page. Replica bootstrap pages are read
// traffic too (a replica serving a flash crowd re-pages on resync), so
// every entry is recorded in the heat table.
func (s *Server) servePage(w io.Writer, epoch uint64, table *partition.Frozen, cursor, limit int64) int {
	n, _ := writePage(w, s.instance, epoch, table, cursor, limit, s.heatTable.Record) // best-effort: headers already sent
	return n
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	readplane.WriteJSON(w, http.StatusOK, s.Stats())
}

// checkpointRequest optionally overrides the snapshot file name. The
// override is confined to the directory of the configured checkpoint
// path: an HTTP client must never be able to make the daemon write to
// an arbitrary filesystem location.
type checkpointRequest struct {
	Path string `json:"path"`
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	var req checkpointRequest
	if r.ContentLength != 0 {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			readplane.WriteError(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
			return
		}
	}
	if s.cfg.CheckpointPath == "" {
		readplane.WriteError(w, http.StatusBadRequest, fmt.Errorf("no checkpoint path configured; start the daemon with -checkpoint"))
		return
	}
	path := s.cfg.CheckpointPath
	if req.Path != "" {
		// Allow alternate snapshot *names* inside the configured
		// checkpoint directory only.
		dir := filepath.Dir(s.cfg.CheckpointPath)
		candidate := filepath.Join(dir, filepath.Base(req.Path))
		if filepath.Base(req.Path) != req.Path && filepath.Clean(req.Path) != candidate {
			readplane.WriteError(w, http.StatusBadRequest,
				fmt.Errorf("path %q escapes the checkpoint directory %q; pass a bare file name", req.Path, dir))
			return
		}
		path = candidate
	}
	snap, err := s.Checkpoint(path)
	if err != nil {
		readplane.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	readplane.WriteJSON(w, http.StatusOK, map[string]any{
		"path":               path,
		"ticks":              snap.Meta.Ticks,
		"mutations_ingested": snap.Meta.MutationsIngested,
		"mutations_applied":  snap.Meta.MutationsApplied,
		"vertices":           snap.Graph.NumVertices(),
		"edges":              snap.Graph.NumEdges(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	readplane.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
