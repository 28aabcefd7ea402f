package server

import (
	"bufio"
	"errors"
	"io"
	"math"
	"net"
	"time"

	"xdgp/internal/graph"
)

// This file is the binary ingest plane: a persistent-connection listener
// speaking the length-prefixed mutation frame protocol of
// internal/graph's wire codec (docs/API.md, "Binary ingest plane"). One
// connection = one producer stream: every batch frame is answered in
// order with an ACK (accepted count + total queued) or a backpressure
// NAK carrying a retry hint, and an ACKed batch drains in the order it
// was acknowledged, like every other producer's. Protocol errors get a
// best-effort malformed NAK and the connection is closed — a desynced
// framing stream cannot be trusted to re-align. The JSON plane stays the simple/debuggable surface; this one
// exists to move millions of mutations per second without JSON decode
// dominating the daemon's CPU.

// DefaultBinaryIdleTimeout is the per-connection read deadline of the
// binary plane when Config.BinaryIdleTimeout is zero: a producer silent
// for this long is disconnected (it can simply redial), so dead peers
// cannot pin connection goroutines forever.
const DefaultBinaryIdleTimeout = 5 * time.Minute

// binaryWriteTimeout bounds each ACK/NAK write. Replies are ≤10 bytes;
// a producer that cannot take one within this window is gone.
const binaryWriteTimeout = 10 * time.Second

// ServeBinary accepts binary-plane connections on l until the listener
// is closed (returning nil) or fails (returning the error). Each
// connection gets its own goroutine. Call CloseBinary — or Stop, which
// includes it — to disconnect the accepted connections; closing the
// listener only stops new ones.
func (s *Server) ServeBinary(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveBinaryConn(conn)
	}
}

// CloseBinary force-closes every live binary-plane connection. New
// connections are governed by the listener, which the caller owns.
// Frames in flight on a force-closed connection get no reply; the
// graceful-shutdown path (Drain) calls DrainBinary first so pipelined
// producers are answered before anything is torn down.
func (s *Server) CloseBinary() {
	s.binMu.Lock()
	conns := make([]net.Conn, 0, len(s.binConns))
	for c := range s.binConns {
		conns = append(conns, c)
	}
	s.binMu.Unlock()
	for _, c := range conns {
		c.Close() //nolint:errcheck // teardown
	}
}

// DefaultBinaryDrainGrace is the window DrainBinary gives connection
// handlers to answer their in-flight frames before force-closing.
const DefaultBinaryDrainGrace = 2 * time.Second

// DrainBinary gracefully shuts the binary ingest plane down: every
// frame already in flight (written by a pipelining producer, not yet
// replied to) is answered — enqueued-and-ACKed frames drain with the
// tick loop as usual; frames read after the drain begins get a
// NakShutdown so the producer knows the batch was NOT accepted — and
// connections close once their socket is quiet. Force-closing instead
// (the old CloseBinary-only path) silently dropped queued-but-unACKed
// batches: the producer saw a reset with no way to tell accepted frames
// from lost ones. Blocks until every handler exits or grace elapses
// (stragglers are then force-closed); grace ≤ 0 means
// DefaultBinaryDrainGrace. Idempotent; new connections are governed by
// the listener, which the caller owns and should close first.
func (s *Server) DrainBinary(grace time.Duration) {
	if grace <= 0 {
		grace = DefaultBinaryDrainGrace
	}
	deadline := time.Now().Add(grace)
	s.binDrainUntil.Store(deadline.UnixNano())
	s.binDraining.Store(true)
	// Nudge every handler: each gets a read deadline inside the drain
	// window, so a handler parked in ReadFrame on an idle socket wakes
	// within the grace period instead of its (minutes-long) idle timeout.
	// Buffered frames still read fine — deadlines only bound new socket
	// reads — so pipelined frames are answered, not dropped.
	s.binMu.Lock()
	for c := range s.binConns {
		c.SetReadDeadline(deadline) //nolint:errcheck // net.Conn deadlines
	}
	s.binMu.Unlock()
	for time.Now().Before(deadline) {
		s.binMu.Lock()
		n := len(s.binConns)
		s.binMu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.CloseBinary()
}

func (s *Server) trackBinaryConn(c net.Conn, add bool) {
	s.binMu.Lock()
	defer s.binMu.Unlock()
	if add {
		if s.binConns == nil {
			s.binConns = make(map[net.Conn]struct{})
		}
		s.binConns[c] = struct{}{}
		s.binaryConns.Add(1)
	} else {
		delete(s.binConns, c)
		s.binaryConns.Add(-1)
	}
}

func (s *Server) serveBinaryConn(conn net.Conn) {
	defer conn.Close()
	s.trackBinaryConn(conn, true)
	defer s.trackBinaryConn(conn, false)

	idle := s.cfg.BinaryIdleTimeout
	if idle == 0 {
		idle = DefaultBinaryIdleTimeout
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	reply := make([]byte, 0, 16)
	for {
		if s.binDraining.Load() {
			// The drain window bounds how long this handler may block on
			// the socket; frames already buffered are still read and
			// answered below.
			conn.SetReadDeadline(time.Unix(0, s.binDrainUntil.Load())) //nolint:errcheck // net.Conn deadlines
		} else if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle)) //nolint:errcheck // net.Conn deadlines
		}
		f, err := graph.ReadFrame(br)
		if err != nil {
			// Clean close between frames needs no reply, and neither does a
			// drain-deadline expiry (every received frame was already
			// answered); a protocol error gets a best-effort malformed NAK
			// so the producer can tell "server rejected my framing" from a
			// network failure.
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !isTimeout(err) {
				s.writeBinaryReply(conn, graph.AppendNakFrame(reply[:0], graph.Nak{Code: graph.NakMalformed}))
			}
			return
		}
		if f.Type != graph.FrameBatch {
			s.writeBinaryReply(conn, graph.AppendNakFrame(reply[:0], graph.Nak{Code: graph.NakMalformed}))
			return
		}
		if s.binDraining.Load() {
			// Shutdown in progress: refuse the batch explicitly. The
			// producer learns this exact frame was NOT accepted — the
			// silent-loss window the force-close path had.
			if !s.writeBinaryReply(conn, graph.AppendNakFrame(reply[:0], graph.Nak{Code: graph.NakShutdown})) {
				return
			}
			continue
		}
		queued, ok := s.Enqueue(f.Batch)
		switch {
		case !ok && s.ClusterError() != nil:
			// Poisoned until restart: like a drain, the producer
			// should resend elsewhere or after the restart.
			reply = graph.AppendNakFrame(reply[:0], graph.Nak{Code: graph.NakShutdown})
		case !ok:
			hint := s.RetryAfterHint()
			reply = graph.AppendNakFrame(reply[:0], graph.Nak{
				Code:             graph.NakBackpressure,
				RetryAfterMillis: uint32(min(hint.Milliseconds(), math.MaxUint32)),
			})
		default:
			s.binaryFrames.Add(1)
			reply = graph.AppendAckFrame(reply[:0], graph.Ack{
				Accepted: uint32(len(f.Batch)),
				Queued:   uint32(min(int64(queued), math.MaxUint32)),
			})
		}
		if !s.writeBinaryReply(conn, reply) {
			return
		}
	}
}

// writeBinaryReply writes one ACK/NAK under a write deadline; false
// means the connection is unusable and the handler should exit.
func (s *Server) writeBinaryReply(conn net.Conn, frame []byte) bool {
	conn.SetWriteDeadline(time.Now().Add(binaryWriteTimeout)) //nolint:errcheck // net.Conn deadlines
	_, err := conn.Write(frame)
	return err == nil
}

// isTimeout reports whether err is a deadline expiry (the expected way a
// drained connection's read loop ends).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
