package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"strconv"

	"xdgp/internal/graph"
)

// This file is the daemon's HTTP surface. All request and response
// bodies are JSON; errors come back as {"error": "..."} with a 4xx/5xx
// status. docs/API.md is the complete endpoint reference, including the
// epoch-consistency semantics of the read endpoints.

// maxIngestBody bounds one POST /v1/mutations body (64 MiB ≈ 1.5M
// mutations) so a runaway client cannot exhaust memory in one request.
const maxIngestBody = 64 << 20

// maxBatchVertices bounds one POST /v1/placements request; clients
// shard larger lookups across requests (each request is answered from
// one snapshot either way).
const maxBatchVertices = 100_000

// maxBatchBody bounds the batch-lookup request body (IDs are ≤20 bytes
// of JSON each; 4 MiB comfortably fits maxBatchVertices).
const maxBatchBody = 4 << 20

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
	mux.HandleFunc("GET /v1/placement/{vertex}", s.handlePlacement)
	mux.HandleFunc("POST /v1/placements", s.handleBatchPlacements)
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
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return
	}
	batch := make(graph.Batch, 0, len(req.Mutations))
	for i, m := range req.Mutations {
		mu, err := m.ToMutation()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("mutation %d: %w", i, err))
			return
		}
		batch = append(batch, mu)
	}
	// A client keeps talking to the same shard (keyed by remote address),
	// so its own mutation order survives the sharded queue drain.
	queued, ok := s.EnqueueShard(batch, shardKey(r.RemoteAddr))
	if !ok {
		hint := s.RetryAfterHint()
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(hint.Seconds()))))
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("ingest queue full (%d mutations pending); retry after %s", queued, hint))
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]int{
		"accepted": len(batch),
		"queued":   queued,
	})
}

// shardKey hashes a producer identity (FNV-1a) onto the ingest shards.
func shardKey(id string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h
}

func (s *Server) handlePlacement(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("vertex")
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("vertex %q: %w", raw, err))
		return
	}
	if err := graph.CheckVertexID(id); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	p, ok := s.Placement(graph.VertexID(id))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("vertex %d is not placed (unknown, removed, or still in the ingest queue)", id))
		return
	}
	resp := map[string]int64{
		"vertex":    id,
		"partition": int64(p),
	}
	if s.cfg.Exchange != nil {
		// Cluster mode: every shard answers every read; the owner is the
		// shard whose decide range covers this vertex's slot.
		owner := s.ownerShard(graph.VertexID(id))
		w.Header().Set("X-Apartd-Owner-Shard", strconv.Itoa(owner))
		resp["owner_shard"] = int64(owner)
	}
	writeJSON(w, http.StatusOK, resp)
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
		writeError(w, http.StatusConflict,
			fmt.Errorf("tick loop is automatic (tick=%s); manual ticks need the daemon started with -tick 0", s.cfg.TickEvery))
		return
	}
	res := s.TickNow()
	if err := s.ClusterError(); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("cluster mode failed: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// BatchRequest is the body of POST /v1/placements. It has two mutually
// exclusive forms: a lookup ("vertices": explicit IDs, up to
// maxBatchVertices) and a bootstrap page ("cursor"+"limit": every placed
// vertex with ID in [cursor, cursor+limit), the form replicas page
// through to copy the whole table — see docs/REPLICATION.md). Limit is
// capped at maxBatchVertices too, so one page costs the daemon no more
// than one maximal lookup.
type BatchRequest struct {
	Vertices []int64 `json:"vertices"`
	Cursor   *int64  `json:"cursor,omitempty"`
	Limit    int64   `json:"limit,omitempty"`
}

// BatchPlacement is one entry of a batch-lookup response. Partition is
// -1 when the vertex is not placed in the answering snapshot (unknown,
// removed, or still in the ingest queue) — batch lookups report absence
// inline rather than failing the whole request.
type BatchPlacement struct {
	Vertex    int64 `json:"vertex"`
	Partition int64 `json:"partition"`
}

// BatchResponse is the body of a POST /v1/placements reply. Every entry
// was answered from the single routing snapshot identified by Epoch, so
// the results are mutually consistent: no interleaved migration can be
// half-visible within one response.
type BatchResponse struct {
	Epoch      uint64           `json:"epoch"`
	Placements []BatchPlacement `json:"placements"`
}

// BatchLookup answers a batch of placement lookups from one routing
// snapshot. It never touches the adaptation state lock; the snapshot is
// pinned by a single atomic load, so the whole result set reflects one
// epoch even while ticks are publishing new ones concurrently.
func (s *Server) BatchLookup(ids []graph.VertexID) BatchResponse {
	snap := s.routing.Load()
	resp := BatchResponse{
		Epoch:      snap.Epoch,
		Placements: make([]BatchPlacement, len(ids)),
	}
	for i, v := range ids {
		resp.Placements[i] = BatchPlacement{
			Vertex:    int64(v),
			Partition: int64(snap.Table.Of(v)),
		}
		s.heatTable.Record(v)
	}
	s.batchRequests.Add(1)
	s.batchLookups.Add(uint64(len(ids)))
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
	Epoch      uint64           `json:"epoch"`
	Instance   string           `json:"instance"`
	K          int              `json:"k"`
	Slots      int64            `json:"slots"`
	NextCursor int64            `json:"next_cursor"`
	Placements []BatchPlacement `json:"placements"`
}

// servePage answers one bootstrap page: every placed vertex with ID in
// [cursor, cursor+limit) of the current routing snapshot. Like
// BatchLookup it pins the snapshot with a single atomic load and never
// touches the adaptation state lock; cost is O(limit) regardless of how
// sparse the range is. Replica-originated bootstrap pages are read
// traffic too — a replica serving a flash crowd re-pages through it on
// resync — so every entry is recorded in the heat table.
func (s *Server) servePage(w http.ResponseWriter, cursor, limit int64) {
	snap := s.routing.Load()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	n, _ := writePage(w, s.instance, snap.Epoch, snap.Table, cursor, limit, s.heatTable.Record) // best-effort: headers already sent
	s.batchRequests.Add(1)
	s.batchLookups.Add(uint64(n))
}

func (s *Server) handleBatchPlacements(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBody)
	var req BatchRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return
	}
	if req.Cursor != nil || req.Limit != 0 {
		if len(req.Vertices) > 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("vertices and cursor/limit are mutually exclusive; send either a lookup or a page request"))
			return
		}
		if req.Cursor == nil || req.Limit <= 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("a page request needs both cursor ≥ 0 and limit ≥ 1"))
			return
		}
		if *req.Cursor < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("cursor %d is negative", *req.Cursor))
			return
		}
		if req.Limit > maxBatchVertices {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("limit %d exceeds the per-request maximum %d", req.Limit, maxBatchVertices))
			return
		}
		s.servePage(w, *req.Cursor, req.Limit)
		return
	}
	if len(req.Vertices) > maxBatchVertices {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%d vertices exceeds the per-request maximum %d; shard the lookup", len(req.Vertices), maxBatchVertices))
		return
	}
	ids := make([]graph.VertexID, len(req.Vertices))
	for i, raw := range req.Vertices {
		if err := graph.CheckVertexID(raw); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("vertex %d: %w", i, err))
			return
		}
		ids[i] = graph.VertexID(raw)
	}
	writeJSON(w, http.StatusOK, s.BatchLookup(ids))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
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
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
			return
		}
	}
	if s.cfg.CheckpointPath == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("no checkpoint path configured; start the daemon with -checkpoint"))
		return
	}
	path := s.cfg.CheckpointPath
	if req.Path != "" {
		// Allow alternate snapshot *names* inside the configured
		// checkpoint directory only.
		dir := filepath.Dir(s.cfg.CheckpointPath)
		candidate := filepath.Join(dir, filepath.Base(req.Path))
		if filepath.Base(req.Path) != req.Path && filepath.Clean(req.Path) != candidate {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("path %q escapes the checkpoint directory %q; pass a bare file name", req.Path, dir))
			return
		}
		path = candidate
	}
	snap, err := s.Checkpoint(path)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"path":               path,
		"ticks":              snap.Meta.Ticks,
		"mutations_ingested": snap.Meta.MutationsIngested,
		"mutations_applied":  snap.Meta.MutationsApplied,
		"vertices":           snap.Graph.NumVertices(),
		"edges":              snap.Graph.NumEdges(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
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
