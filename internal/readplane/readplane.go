// Package readplane is the placement read API of both serving tiers,
// GET /v1/placement/{vertex} and the lookup form of POST /v1/placements,
// written once: the primary (internal/server) and the read replica
// (internal/replica) each publish their table into one Plane, so a
// client gets the same statuses, error shapes and success bytes from
// either process, and the primary's in-process Placement call reads
// through the same code as GET /v1/placement. A Plane is wired with only
// what differs between the tiers: why no table is published yet,
// whether reads feed a heat table, and whether pages and owner shards
// are served. The package also holds the JSON and Prometheus text
// helpers both daemons share. docs/API.md is the endpoint reference.
package readplane

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"xdgp/internal/graph"
	"xdgp/internal/heat"
	"xdgp/internal/partition"
)

// MaxBatchVertices bounds one POST /v1/placements request, lookup IDs
// and page limit alike; clients shard larger lookups across requests
// (each request is answered from one table either way).
const MaxBatchVertices = 100_000

// MaxBatchBody bounds the POST /v1/placements request body (IDs are ≤20
// bytes of JSON each; 4 MiB comfortably fits MaxBatchVertices).
const MaxBatchBody = 4 << 20

// BatchRequest is the body of POST /v1/placements. It has two mutually
// exclusive forms: a lookup ("vertices": explicit IDs, up to
// MaxBatchVertices) and a bootstrap page ("cursor"+"limit": every placed
// vertex with ID in [cursor, cursor+limit), the form replicas page
// through to copy the whole table — see docs/REPLICATION.md). Limit is
// capped at MaxBatchVertices too, so one page costs no more than one
// maximal lookup.
type BatchRequest struct {
	Vertices []int64 `json:"vertices"`
	Cursor   *int64  `json:"cursor,omitempty"`
	Limit    int64   `json:"limit,omitempty"`
}

// BatchPlacement is one entry of a batch-lookup or page response.
// Partition is -1 when the vertex is not placed in the answering table
// (unknown, removed, or added after its epoch) — batch lookups report
// absence inline rather than failing the whole request.
type BatchPlacement struct {
	Vertex    int64 `json:"vertex"`
	Partition int64 `json:"partition"`
}

// BatchResponse is the body of a POST /v1/placements lookup reply. Every
// entry was answered from the single table identified by Epoch, so the
// results are mutually consistent: no interleaved migration can be
// half-visible within one response.
type BatchResponse struct {
	Epoch      uint64           `json:"epoch"`
	Placements []BatchPlacement `json:"placements"`
}

// Plane serves the placement read API from the table last given to
// Publish. Set whichever of the optional fields apply before the first
// Publish and never change them afterwards; every method is then safe
// for concurrent use and none takes a lock. A Plane must not be copied
// after first use.
type Plane struct {
	// NotServing is the error a read gets while no table is published:
	// it is refused with 503, Retry-After: 1 and the error's text. Only
	// the replica, which may have no table, needs to set it; the primary
	// publishes before it serves and never withdraws.
	NotServing func() error
	// Heat, when set, records every vertex read exactly once: single
	// lookups and every entry of a batch lookup. It is the table itself
	// rather than a hook so that a single lookup makes no indirect call.
	Heat *heat.Table
	// Page, when set, writes one bootstrap page of table — the
	// cursor+limit form, already validated — and returns the entries it
	// wrote. When nil the page form is refused with 400.
	Page func(w io.Writer, epoch uint64, table *partition.Frozen, cursor, limit int64) int
	// Owner, when set, names the cluster shard that decides v, given the
	// answering table's slot count; single lookups then carry it as the
	// owner_shard field and the X-Apartd-Owner-Shard header.
	Owner func(v graph.VertexID, slots int) int

	// Reads, when set, counts every entry read: single lookups (placed
	// or not), batch and page entries. The replica sets it. The primary
	// leaves it nil: its heat table already counts every read, so a
	// second shared counter would only add a contended write to the
	// lock-free single read.
	Reads *atomic.Uint64

	// Read counters. Batches counts POST /v1/placements lookups and
	// pages served, in-process Lookup calls included, and BatchEntries
	// the entries they answered. NotReady counts reads refused with 503.
	Batches, BatchEntries, NotReady atomic.Uint64

	cur atomic.Pointer[Snapshot] // nil until Publish, or after a withdrawal
}

// Snapshot is one published table: an immutable, epoch-numbered
// vertex→partition map, retired by pointer swap. A goroutine that
// loaded one may keep reading it for as long as it likes; nothing is
// ever written to a published Snapshot.
type Snapshot struct {
	// Epoch is the epoch Table is exact at. Epochs are serving-plane
	// state, numbered 1,2,3,… within one primary process and not
	// persisted in checkpoints, so a restarted primary starts again at 1
	// and watch consumers must resync (docs/OPERATIONS.md).
	Epoch uint64
	// Table answers vertex→partition lookups without synchronization.
	Table *partition.Frozen
	// CreatedUnixNano timestamps publication (the primary's /metrics
	// snapshot-age gauge is now − this).
	CreatedUnixNano int64
}

// Publish makes frozen, exact at epoch, the table every later read
// answers from. A nil frozen withdraws the table: reads are refused
// until the next Publish.
func (p *Plane) Publish(epoch uint64, frozen *partition.Frozen) {
	if frozen == nil {
		p.cur.Store(nil)
		return
	}
	p.cur.Store(&Snapshot{Epoch: epoch, Table: frozen, CreatedUnixNano: time.Now().UnixNano()})
}

// Current returns the published Snapshot, or nil when none is
// published, with one atomic load and no lock.
func (p *Plane) Current() *Snapshot { return p.cur.Load() }

// Load returns the published table and its epoch, or NotServing's error
// when none is published.
func (p *Plane) Load() (uint64, *partition.Frozen, error) {
	t := p.cur.Load()
	if t == nil {
		return 0, nil, p.NotServing()
	}
	return t.Epoch, t.Table, nil
}

// Register mounts the plane's two endpoints on mux.
func (p *Plane) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/placement/{vertex}", p.servePlacement)
	mux.HandleFunc("POST /v1/placements", p.serveBatch)
}

// One answers one placement lookup from the current table: its epoch,
// v's partition in it (partition.None when v is not placed there) and
// its slot count, with ok=false when no table is published. GET
// /v1/placement/{vertex} and the primary's in-process Placement call
// both read through it. It calls nothing that is not inlined, so it runs
// without a stack frame.
func (p *Plane) One(v graph.VertexID) (epoch uint64, part partition.ID, slots int, ok bool) {
	t := p.cur.Load()
	if t == nil {
		return 0, partition.None, 0, false
	}
	// Read the table before the counters: their atomic adds would hold
	// back the loads that follow them.
	epoch, part, slots = t.Epoch, t.Table.Of(v), t.Table.Slots()
	if p.Reads != nil {
		p.Reads.Add(1)
	}
	p.Heat.Record(v)
	return epoch, part, slots, true
}

// Lookup answers a batch of placement lookups from one table: the whole
// result reflects one epoch even while new ones are published
// concurrently. It fails only when Load does.
func (p *Plane) Lookup(ids []graph.VertexID) (BatchResponse, error) {
	epoch, table, err := p.Load()
	if err != nil {
		return BatchResponse{}, err
	}
	resp := BatchResponse{Epoch: epoch, Placements: make([]BatchPlacement, len(ids))}
	for i, v := range ids {
		resp.Placements[i] = BatchPlacement{Vertex: int64(v), Partition: int64(table.Of(v))}
		p.Heat.Record(v)
	}
	p.counted(len(ids))
	return resp, nil
}

// counted records one served batch request of n entries.
func (p *Plane) counted(n int) {
	p.Batches.Add(1)
	p.BatchEntries.Add(uint64(n))
	if p.Reads != nil {
		p.Reads.Add(uint64(n))
	}
}

// notServing refuses a read that arrived before a servable table: 503
// with Retry-After tells load balancers and clients the process is
// warming up, not that the vertex is missing.
func (p *Plane) notServing(w http.ResponseWriter, err error) {
	p.NotReady.Add(1)
	w.Header().Set("Retry-After", "1")
	WriteError(w, http.StatusServiceUnavailable, err)
}

func (p *Plane) servePlacement(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("vertex")
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("vertex %q: %w", raw, err))
		return
	}
	if err := graph.CheckVertexID(id); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	epoch, part, slots, ok := p.One(graph.VertexID(id))
	if !ok {
		p.notServing(w, p.NotServing())
		return
	}
	if part == partition.None {
		WriteError(w, http.StatusNotFound,
			fmt.Errorf("vertex %d is not placed at epoch %d (unknown, removed, or added after that epoch)", id, epoch))
		return
	}
	resp := map[string]int64{"vertex": id, "partition": int64(part)}
	if p.Owner != nil {
		owner := p.Owner(graph.VertexID(id), slots)
		w.Header().Set("X-Apartd-Owner-Shard", strconv.Itoa(owner))
		resp["owner_shard"] = int64(owner)
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (p *Plane) serveBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBatchBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return
	}
	if req.Cursor != nil || req.Limit != 0 {
		p.servePage(w, req)
		return
	}
	if len(req.Vertices) > MaxBatchVertices {
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("%d vertices exceeds the per-request maximum %d; shard the lookup", len(req.Vertices), MaxBatchVertices))
		return
	}
	ids := make([]graph.VertexID, len(req.Vertices))
	for i, raw := range req.Vertices {
		if err := graph.CheckVertexID(raw); err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("vertex %d: %w", i, err))
			return
		}
		ids[i] = graph.VertexID(raw)
	}
	resp, err := p.Lookup(ids)
	if err != nil {
		p.notServing(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// servePage answers the cursor+limit form of POST /v1/placements.
func (p *Plane) servePage(w http.ResponseWriter, req BatchRequest) {
	var err error
	switch {
	case p.Page == nil:
		err = fmt.Errorf("replicas do not serve bootstrap pages; page the primary instead (replicas replicate from the primary, not from each other)")
	case len(req.Vertices) > 0:
		err = fmt.Errorf("vertices and cursor/limit are mutually exclusive; send either a lookup or a page request")
	case req.Cursor == nil || req.Limit <= 0:
		err = fmt.Errorf("a page request needs both cursor ≥ 0 and limit ≥ 1")
	case *req.Cursor < 0:
		err = fmt.Errorf("cursor %d is negative", *req.Cursor)
	case req.Limit > MaxBatchVertices:
		err = fmt.Errorf("limit %d exceeds the per-request maximum %d", req.Limit, MaxBatchVertices)
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	epoch, table, err := p.Load()
	if err != nil {
		p.notServing(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	p.counted(p.Page(w, epoch, table, *req.Cursor, req.Limit))
}

// WriteJSON writes v as the two-space-indented JSON body of a reply with
// the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort: headers already sent
}

// WriteError writes {"error": err} with the given status.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// Metrics builds a GET /metrics page in the Prometheus text exposition
// format, hand-written so the daemons stay dependency-free.
type Metrics struct{ strings.Builder }

// Counter appends one counter sample with its HELP and TYPE lines.
func (m *Metrics) Counter(name, help string, v uint64) {
	fmt.Fprintf(m, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// Gauge appends one gauge sample with its HELP and TYPE lines.
func (m *Metrics) Gauge(name, help string, v float64) {
	fmt.Fprintf(m, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

// Serve writes the page as a 200 reply.
func (m *Metrics) Serve(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, m.String()) //nolint:errcheck // best-effort: headers already sent
}
