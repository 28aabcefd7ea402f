package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
	"xdgp/internal/replica"
	"xdgp/internal/server"
)

// host runs one primary and one tailing replica inside the benchmark
// process, wired together over loopback exactly as apartd and apartr are:
// the primary's API on an http.Server, its binary ingest plane on a
// ServeBinary listener, the replica bootstrapping and tailing over HTTP.
// The benchmark is the only tick source (the daemon runs in manual tick
// mode) and drives everything through public calls.
type host struct {
	srv       *server.Server
	hs        *http.Server
	httpLn    net.Listener
	binLn     net.Listener
	httpDone  chan struct{}
	binDone   chan struct{}
	rep       *replica.Replica
	conn      net.Conn
	br        *bufio.Reader
	client    *http.Client
	base      string
	bootstrap time.Duration
	notReady  int // replica polls that found no servable table during lock-step
}

// replicaTimeout bounds every wait for the replica; a replica that needs
// longer has stalled and the run fails.
const replicaTimeout = 60 * time.Second

// startHost serves srv over loopback, starts a replica and waits until it
// serves the primary's current epoch, then dials the producer connection.
// On error everything started so far is stopped again.
func startHost(srv *server.Server) (h *host, err error) {
	h = &host{srv: srv, httpDone: make(chan struct{}), binDone: make(chan struct{})}
	defer func() {
		if err != nil {
			h.stop()
			h = nil
		}
	}()
	if h.httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return h, err
	}
	if h.binLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return h, err
	}
	h.hs = &http.Server{Handler: srv}
	go func() { defer close(h.httpDone); h.hs.Serve(h.httpLn) }()    //nolint:errcheck // returns on Close
	go func() { defer close(h.binDone); srv.ServeBinary(h.binLn) }() //nolint:errcheck // returns on Close
	h.base = "http://" + h.httpLn.Addr().String()

	rcfg := replica.DefaultConfig(h.base)
	// The lag poller scrapes the primary's /v1/stats, an O(|E|) cut
	// recount; an hour keeps it out of every measured tick. Lag health is
	// not under test here — catch-up is timed directly.
	rcfg.LagPollEvery = time.Hour
	if h.rep, err = replica.New(rcfg); err != nil {
		return h, err
	}
	t0 := time.Now()
	h.rep.Start()
	if err = h.waitReplica(srv.Routing().Epoch, false); err != nil {
		return h, fmt.Errorf("replica bootstrap: %w", err)
	}
	h.bootstrap = time.Since(t0)

	if h.conn, err = net.Dial("tcp", h.binLn.Addr().String()); err != nil {
		return h, err
	}
	h.br = bufio.NewReader(h.conn)
	h.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	return h, nil
}

// stop tears the host down and waits for its serving goroutines to end.
func (h *host) stop() {
	if h.conn != nil {
		h.conn.Close()
	}
	if h.client != nil {
		h.client.CloseIdleConnections()
	}
	if h.rep != nil {
		h.rep.Stop()
	}
	if h.hs != nil {
		h.hs.Close()
		<-h.httpDone
	}
	if h.binLn != nil {
		h.binLn.Close()
		<-h.binDone
	} else if h.httpLn != nil {
		h.httpLn.Close()
	}
	h.srv.Stop()
}

// waitReplica spins until the replica serves epoch or later. During
// lock-step (inLoop) a replica without a servable table is what a reader
// would see as a 503, so each such poll is counted.
func (h *host) waitReplica(epoch uint64, inLoop bool) error {
	deadline := time.Now().Add(replicaTimeout)
	for i := 0; ; i++ {
		_, e, ok := h.rep.Snapshot()
		if ok && e >= epoch {
			return nil
		}
		if !ok && inLoop {
			h.notReady++
		}
		if i%1024 == 0 && time.Now().After(deadline) {
			return fmt.Errorf("replica at epoch %d (serving=%v), primary at %d after %s", e, ok, epoch, replicaTimeout)
		}
		runtime.Gosched()
	}
}

// send writes one tick's frames on the producer connection and reads an
// ACK for each; any NAK or short ACK is an error.
func (h *host) send(frames [][]byte, sizes []int) error {
	for _, f := range frames {
		if _, err := h.conn.Write(f); err != nil {
			return err
		}
	}
	for i := range frames {
		fr, err := graph.ReadFrame(h.br)
		if err != nil {
			return err
		}
		switch {
		case fr.Type == graph.FrameNak:
			return fmt.Errorf("frame %d: NAK code %d", i, fr.Nak.Code)
		case fr.Type != graph.FrameAck:
			return fmt.Errorf("frame %d: unexpected reply type %d", i, fr.Type)
		case int(fr.Ack.Accepted) != sizes[i]:
			return fmt.Errorf("frame %d: ACK accepted %d of %d", i, fr.Ack.Accepted, sizes[i])
		}
	}
	return nil
}

// read issues GET /v1/placement/{v} on the primary and returns the
// partition it answered.
func (h *host) read(v graph.VertexID) (int64, error) {
	resp, err := h.client.Get(h.base + "/v1/placement/" + strconv.Itoa(int(v)))
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("vertex %d: HTTP %d", v, resp.StatusCode)
	}
	var out struct {
		Partition *int64 `json:"partition"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, err
	}
	if out.Partition == nil {
		return 0, errors.New("placement reply without partition")
	}
	return *out.Partition, nil
}

// tableHash fingerprints a routing table: every placed (vertex, partition)
// pair in vertex order, plus the count.
func tableHash(f *partition.Frozen) uint64 {
	h := newHasher()
	n := 0
	f.Scan(0, f.Slots(), func(v graph.VertexID, p partition.ID) {
		h.ints(int64(v), int64(p))
		n++
	})
	h.ints(int64(n))
	return h.sum()
}
