package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"xdgp/internal/graph"
)

// postFrom sends one JSON ingest request through the daemon's handler as
// if it came from remoteAddr and returns the response status.
func postFrom(t *testing.T, s *Server, remoteAddr string, muts ...MutationJSON) int {
	t.Helper()
	body, err := json.Marshal(IngestRequest{Mutations: muts})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/mutations", bytes.NewReader(body))
	req.RemoteAddr = remoteAddr
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code
}

// edgesPresent lists the pairs (2i, 2i+1), i < n, that are edges of the
// daemon's graph.
func edgesPresent(s *Server, n int) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g := s.part.Graph()
	var present []int
	for i := 0; i < n; i++ {
		if g.HasEdge(graph.VertexID(2*i), graph.VertexID(2*i+1)) {
			present = append(present, i)
		}
	}
	return present
}

// TestIngestOrderAcrossJSONClients pins the ordering docs/API.md
// promises: a batch applies after every batch acknowledged before it,
// even when the two come from different connections of one client (a
// keep-alive pool with two sockets has two remote ports). Each pair adds
// an edge from one port and, once that is acknowledged, removes it from
// another; after one tick no edge may remain.
func TestIngestOrderAcrossJSONClients(t *testing.T) {
	const pairs = 32
	s := testServer(t, nil)
	for i := 0; i < pairs; i++ {
		u, v := int64(2*i), int64(2*i+1)
		from, to := fmt.Sprintf("10.0.0.1:%d", 40000+2*i), fmt.Sprintf("10.0.0.1:%d", 40001+2*i)
		if code := postFrom(t, s, from, MutationJSON{Op: "add-edge", U: u, V: v}); code != http.StatusAccepted {
			t.Fatalf("pair %d: add-edge status %d", i, code)
		}
		if code := postFrom(t, s, to, MutationJSON{Op: "remove-edge", U: u, V: v}); code != http.StatusAccepted {
			t.Fatalf("pair %d: remove-edge status %d", i, code)
		}
	}
	if res := s.TickNow(); res.BatchSize != 2*pairs {
		t.Fatalf("tick coalesced %d mutations, want %d", res.BatchSize, 2*pairs)
	}
	if present := edgesPresent(s, pairs); len(present) > 0 {
		t.Fatalf("pairs %v: the remove-edge was applied before the add-edge acknowledged ahead of it", present)
	}
}

// TestIngestOrderAcrossBinaryConns is the same property over two binary
// connections: the pairs alternate which connection adds and which
// removes, so neither connection's position can hide a reordering.
func TestIngestOrderAcrossBinaryConns(t *testing.T) {
	const pairs = 16
	s := testServer(t, nil)
	addr := startBinary(t, s)
	conns := [2]*binaryClient{dialBinary(t, addr), nil}
	for i := 0; i < pairs; i++ {
		u, v := graph.VertexID(2*i), graph.VertexID(2*i+1)
		add, remove := conns[i%2], conns[1-i%2]
		if f := add.send(t, graph.Batch{{Kind: graph.MutAddEdge, U: u, V: v}}); f.Type != graph.FrameAck {
			t.Fatalf("pair %d: add-edge reply %+v", i, f)
		}
		if remove == nil {
			// Dialled only now, so the first connection's handler is
			// already serving when the second one starts.
			conns[1] = dialBinary(t, addr)
			remove = conns[1]
		}
		if f := remove.send(t, graph.Batch{{Kind: graph.MutRemoveEdge, U: u, V: v}}); f.Type != graph.FrameAck {
			t.Fatalf("pair %d: remove-edge reply %+v", i, f)
		}
	}
	if res := s.TickNow(); res.BatchSize != 2*pairs {
		t.Fatalf("tick coalesced %d mutations, want %d", res.BatchSize, 2*pairs)
	}
	if present := edgesPresent(s, pairs); len(present) > 0 {
		t.Fatalf("pairs %v: the remove-edge was applied before the add-edge acknowledged ahead of it", present)
	}
}

// producerCounts is what one test producer saw acknowledged and refused.
type producerCounts struct {
	accepted, refused uint64
	refusedEdges      [][2]graph.VertexID
}

// TestIngestAccountingUnderConcurrency pins the daemon's ingest
// accounting (docs/OPERATIONS.md) with JSON and binary producers racing
// each other, the tick loop and a small MaxPending cap: every
// acknowledged mutation is counted once in mutations_ingested and
// applied by exactly one tick, every refused one is counted only in
// mutations_rejected and never reaches the graph, and the shutdown drain
// leaves nothing pending. Every mutation adds an edge no other mutation
// touches, so a tick applies exactly the mutations it coalesced.
func TestIngestAccountingUnderConcurrency(t *testing.T) {
	const (
		producers = 4 // even ones JSON, odd ones binary
		batches   = 60
		batchLen  = 50
		limit     = 400 // MaxPending
		stride    = batches*batchLen + limit + 1
	)
	s := testServer(t, func(c *Config) { c.MaxPending = limit })
	ts := httptest.NewServer(s)
	defer ts.Close()
	addr := startBinary(t, s)

	// batch returns producer p's j-th batch: edges (2i, 2i+1) over a
	// vertex range of its own. Batch `batches` is one over the cap, which
	// is always refused whole.
	batch := func(p, j int) graph.Batch {
		n := batchLen
		if j == batches {
			n = limit + 1
		}
		b := make(graph.Batch, n)
		for k := range b {
			i := graph.VertexID(p*stride + j*batchLen + k)
			b[k] = graph.Mutation{Kind: graph.MutAddEdge, U: 2 * i, V: 2*i + 1}
		}
		return b
	}
	sendJSON := func(b graph.Batch) (bool, error) {
		req := IngestRequest{Mutations: make([]MutationJSON, len(b))}
		for k, m := range b {
			req.Mutations[k] = MutationJSON{Op: "add-edge", U: int64(m.U), V: int64(m.V)}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return false, err
		}
		resp, err := http.Post(ts.URL+"/v1/mutations", "application/json", bytes.NewReader(body))
		if err != nil {
			return false, err
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			return true, nil
		case http.StatusTooManyRequests:
			return false, nil
		}
		return false, fmt.Errorf("status %d", resp.StatusCode)
	}

	counts := make([]producerCounts, producers)
	errs := make(chan error, producers+1)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			send := sendJSON
			if p%2 == 1 {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					errs <- err
					return
				}
				defer conn.Close()
				br := bufio.NewReader(conn)
				send = func(b graph.Batch) (bool, error) {
					if err := graph.WriteBatchFrame(conn, b); err != nil {
						return false, err
					}
					f, err := graph.ReadFrame(br)
					switch {
					case err != nil:
						return false, err
					case f.Type == graph.FrameAck:
						return true, nil
					case f.Type == graph.FrameNak && f.Nak.Code == graph.NakBackpressure:
						return false, nil
					}
					return false, fmt.Errorf("reply %+v", f)
				}
			}
			c := &counts[p]
			for j := 0; j <= batches; j++ {
				b := batch(p, j)
				ok, err := send(b)
				if err != nil {
					errs <- fmt.Errorf("producer %d batch %d: %w", p, j, err)
					return
				}
				if ok {
					c.accepted += uint64(len(b))
				} else {
					c.refused += uint64(len(b))
					c.refusedEdges = append(c.refusedEdges, [2]graph.VertexID{b[0].U, b[0].V})
				}
			}
		}(p)
	}

	// The tick loop, driven by hand so every tick's result is seen.
	stop := make(chan struct{})
	tickerDone := make(chan struct{})
	var ticked uint64
	go func() {
		defer close(tickerDone)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			res := s.TickNow()
			if res.Applied != res.BatchSize {
				errs <- fmt.Errorf("tick applied %d of %d coalesced mutations", res.Applied, res.BatchSize)
				return
			}
			ticked += uint64(res.BatchSize)
		}
	}()
	wg.Wait()
	close(stop)
	<-tickerDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var accepted, refused uint64
	for _, c := range counts {
		accepted += c.accepted
		refused += c.refused
	}
	pending, _ := s.PendingMutations()
	if _, err := s.Drain(1000); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Ingested != accepted || st.Rejected != refused {
		t.Fatalf("ingested %d, rejected %d; producers saw %d acknowledged, %d refused",
			st.Ingested, st.Rejected, accepted, refused)
	}
	if refused == 0 {
		t.Fatal("no batch was refused: the over-cap batches must be")
	}
	if ticked+uint64(pending) != st.Ingested {
		t.Fatalf("ticks coalesced %d + %d pending at drain, want %d ingested", ticked, pending, st.Ingested)
	}
	if st.Pending != 0 || st.Applied != st.Ingested || uint64(st.Edges) != st.Ingested {
		t.Fatalf("after drain: pending %d, applied %d, edges %d; want 0, %d, %d",
			st.Pending, st.Applied, st.Edges, st.Ingested, st.Ingested)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for p, c := range counts {
		for _, e := range c.refusedEdges {
			if s.part.Graph().HasEdge(e[0], e[1]) {
				t.Fatalf("producer %d: edge %v of a refused batch reached the graph", p, e)
			}
		}
	}
}
