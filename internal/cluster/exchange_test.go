package cluster

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// runRounds drives n handles through rounds [from, to] concurrently,
// each submitting a payload derived from (round, shard), and verifies
// every handle sees the identical full payload set per round.
func runRounds(t *testing.T, handles []Exchange, from, to uint64) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(handles))
	for s, ex := range handles {
		wg.Add(1)
		go func(s int, ex Exchange) {
			defer wg.Done()
			for r := from; r <= to; r++ {
				got, err := ex.Round(r, roundPayload(r, s))
				if err != nil {
					errs <- fmt.Errorf("shard %d round %d: %w", s, r, err)
					return
				}
				for i, p := range got {
					if !bytes.Equal(p, roundPayload(r, i)) {
						errs <- fmt.Errorf("shard %d round %d: payload %d = %q", s, r, i, p)
						return
					}
				}
			}
		}(s, ex)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func roundPayload(r uint64, shard int) []byte {
	return []byte(fmt.Sprintf("r%d-s%d", r, shard))
}

func TestMemExchangeBarrier(t *testing.T) {
	c, err := NewMemCluster(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	handles := make([]Exchange, 3)
	for i := range handles {
		if handles[i], err = c.Shard(i); err != nil {
			t.Fatal(err)
		}
	}
	runRounds(t, handles, 1, 20)
	if got := handles[0].Completed(); got != 20 {
		t.Fatalf("completed = %d, want 20", got)
	}
}

// TestMemExchangeReplay is the in-process rejoin path: a "restarted"
// shard takes a fresh handle and re-runs old rounds — the journal must
// hand back the original payloads, ignoring whatever the restarted
// replica submits.
func TestMemExchangeReplay(t *testing.T) {
	c, err := NewMemCluster(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, _ := c.Shard(0)
	b, _ := c.Shard(1)
	runRounds(t, []Exchange{a, b}, 1, 5)

	reborn, _ := c.Shard(1)
	if got := reborn.Completed(); got != 5 {
		t.Fatalf("completed = %d, want 5", got)
	}
	for r := uint64(1); r <= 5; r++ {
		got, err := reborn.Round(r, []byte("fresh-and-wrong"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[1], roundPayload(r, 1)) {
			t.Fatalf("round %d: replay returned %q, want the journaled payload", r, got[1])
		}
	}
}

func TestMemExchangeJournalEviction(t *testing.T) {
	c, err := NewMemCluster(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, _ := c.Shard(0)
	b, _ := c.Shard(1)
	runRounds(t, []Exchange{a, b}, 1, 20)
	if _, err := a.Round(2, nil); err == nil {
		t.Fatal("evicted round replayed without error")
	}
}

func TestMemExchangeClose(t *testing.T) {
	c, err := NewMemCluster(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Shard(0)
	done := make(chan error, 1)
	go func() {
		_, err := a.Round(1, nil) // blocks: shard 1 never arrives
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Round returned nil after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Round still blocked after Close")
	}
}

// TestExchangeGeometryChecks pins that both transports refuse a cluster
// of fewer than 2 shards and a shard outside [0, Shards): the server
// takes its geometry from the Exchange, so these are the only checks.
func TestExchangeGeometryChecks(t *testing.T) {
	if _, err := NewMemCluster(1, 0); err == nil {
		t.Fatal("NewMemCluster accepted a 1-shard cluster")
	}
	c, err := NewMemCluster(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, i := range []int{-1, 2} {
		if _, err := c.Shard(i); err == nil {
			t.Fatalf("MemCluster.Shard(%d) accepted in a 2-shard cluster", i)
		}
	}
	if h, err := c.Shard(1); err != nil || h.Shard() != 1 || h.Shards() != 2 {
		t.Fatalf("MemCluster.Shard(1): %v, err %v", h, err)
	}

	// The listener is left nil, so a refusal for any reason other than
	// the geometry would name the listener instead.
	two := []string{"127.0.0.1:1", "127.0.0.1:2"}
	for _, tc := range []struct {
		cfg  TCPConfig
		want string
	}{
		{TCPConfig{Shard: 0, Shards: 1, Peers: two[:1]}, "at least 2 shards"},
		{TCPConfig{Shard: 5, Shards: 2, Peers: two}, "out of range"},
		{TCPConfig{Shard: -1, Shards: 2, Peers: two}, "out of range"},
		{TCPConfig{Shard: 0, Shards: 3, Peers: two}, "2 peer addresses for 3 shards"},
	} {
		_, err := NewTCP(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("NewTCP(shard %d of %d, %d peers): error %v, want %q",
				tc.cfg.Shard, tc.cfg.Shards, len(tc.cfg.Peers), err, tc.want)
		}
	}
}

// startTCPNode opens a listener and a TCP exchange for one shard;
// addrs must already hold every shard's listen address.
func startTCPNode(t *testing.T, shard int, lns []net.Listener, addrs []string, watermark uint64) *TCP {
	t.Helper()
	ex, err := NewTCP(TCPConfig{
		Shard:      shard,
		Shards:     len(addrs),
		Listener:   lns[shard],
		Peers:      addrs,
		ConfigHash: 0xfeed,
		Watermark:  watermark,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("shard %d: %v", shard, err)
	}
	return ex
}

func clusterListeners(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return lns, addrs
}

func TestTCPExchangeRounds(t *testing.T) {
	const n = 3
	lns, addrs := clusterListeners(t, n)
	handles := make([]Exchange, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			handles[i] = startTCPNode(t, i, lns, addrs, 0)
		}(i)
	}
	wg.Wait()
	defer func() {
		for _, h := range handles {
			h.Close() //nolint:errcheck // teardown
		}
	}()
	runRounds(t, handles, 1, 30)
}

// TestTCPExchangeRejoin kills one node mid-run and restarts it from an
// older watermark: the survivors' journals must replay the missed
// rounds (the dead node's own payloads included) before live rounds
// resume.
func TestTCPExchangeRejoin(t *testing.T) {
	const n = 3
	lns, addrs := clusterListeners(t, n)
	handles := make([]Exchange, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			handles[i] = startTCPNode(t, i, lns, addrs, 0)
		}(i)
	}
	wg.Wait()
	runRounds(t, handles, 1, 10)

	// Kill shard 2. Its listener dies with it.
	handles[2].Close() //nolint:errcheck // simulated crash
	defer handles[0].Close()
	defer handles[1].Close()

	// Survivors push rounds 11..13; they block awaiting shard 2, so run
	// them in the background.
	surv := make(chan error, 2)
	for s := 0; s < 2; s++ {
		go func(s int) {
			for r := uint64(11); r <= 13; r++ {
				if _, err := handles[s].Round(r, roundPayload(r, s)); err != nil {
					surv <- err
					return
				}
			}
			surv <- nil
		}(s)
	}

	// Restart shard 2 from watermark 4: rounds 5..10 must replay from
	// the peers' journals, then 11..13 complete live.
	ln, err := net.Listen("tcp", addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	lns[2] = ln
	reborn := startTCPNode(t, 2, lns, addrs, 4)
	defer reborn.Close()
	if got := reborn.Completed(); got < 10 {
		t.Fatalf("rejoined with completed = %d, want ≥ 10 (journal replay)", got)
	}
	for r := uint64(5); r <= 13; r++ {
		got, err := reborn.Round(r, roundPayload(r, 2))
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for i, p := range got {
			if !bytes.Equal(p, roundPayload(r, i)) {
				t.Fatalf("round %d: payload %d = %q after rejoin", r, i, p)
			}
		}
	}
	for s := 0; s < 2; s++ {
		if err := <-surv; err != nil {
			t.Fatalf("survivor: %v", err)
		}
	}
}

func TestTCPExchangeRejectsConfigMismatch(t *testing.T) {
	lns, addrs := clusterListeners(t, 2)
	done := make(chan *TCP, 1)
	go func() {
		ex, err := NewTCP(TCPConfig{
			Shard: 0, Shards: 2, Listener: lns[0], Peers: addrs,
			ConfigHash: 0xfeed, Logf: t.Logf,
		})
		if err != nil {
			done <- nil
			return
		}
		done <- ex
	}()
	_, err := NewTCP(TCPConfig{
		Shard: 1, Shards: 2, Listener: lns[1], Peers: addrs,
		ConfigHash: 0xbad, Logf: t.Logf, // different deterministic config
	})
	if err == nil {
		t.Fatal("mismatched config hash accepted")
	}
	if ex := <-done; ex != nil {
		ex.Close() //nolint:errcheck // teardown
	}
}
