package graph

import (
	"fmt"
	"io"
)

// This file implements the binary mutation wire protocol: the
// length-prefixed framing the daemon's binary ingest plane speaks over
// persistent connections. It reuses the codec conventions of codec.go —
// little-endian fixed-width integers, every length bounded before
// allocation, arbitrary input yields a clean error, never a panic — but
// is a *separate* format with its own version byte: the graph snapshot
// codec serializes storage identity, the wire protocol serializes
// mutation streams, and the two must be able to evolve independently.
//
// Frame layout (all integers little-endian):
//
//	u8  version            — WireVersion (1); anything else is an error
//	u8  type               — FrameBatch / FrameAck / FrameNak
//	u32 payloadLen         — exact payload byte count, bounded
//	payloadLen × u8        — payload, by type:
//
//	FrameBatch (client → server):
//	  u32 count            — mutations in the batch, ≤ MaxWireBatch
//	  count × (u8 kind, i32 u, i32 v)
//	                       — kind is the MutationKind enum; vertex ops
//	                         carry v = 0 on the wire
//	FrameAck (server → client):
//	  u32 accepted, u32 queued
//	                       — this frame's count; total now pending
//	FrameNak (server → client):
//	  u8 code, u32 retryAfterMillis
//	                       — NakBackpressure: queue full, retry the SAME
//	                         batch after the hint (nothing was enqueued);
//	                         NakMalformed: protocol error, the server
//	                         closes the connection after sending it;
//	                         NakShutdown: server draining, nothing was
//	                         enqueued and the connection is about to close
//
// The payload length must match the type's content exactly (4 + 9·count
// for a batch); trailing or missing bytes are errors, so a desynced
// stream fails fast instead of silently re-framing.

// WireVersion is the protocol version byte every frame starts with. A
// reader refuses other versions instead of guessing at the layout.
const WireVersion = 1

// AppendFrameHeader appends the header that starts every frame of both
// binary wires, this protocol and the cluster RPC (internal/cluster):
// u8 version, u8 type, u32 little-endian payload length. Each wire has
// its own version byte and frame types.
func AppendFrameHeader(dst []byte, version, typ byte, payload int) []byte {
	return appendU32(append(dst, version, typ), uint32(payload))
}

// ReadFrameHeader reads one frame header of the wire named wire and
// returns the frame's type and payload length. A stream that ends
// cleanly before the header returns io.EOF bare; another version than
// version, a header cut short or a payload over max is an error.
func ReadFrameHeader(r io.Reader, wire string, version byte, max int) (typ byte, payload int, err error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, 0, err // clean EOF between frames stays io.EOF
	}
	if hdr[0] != version {
		return 0, 0, fmt.Errorf("%s: unsupported version %d (want %d)", wire, hdr[0], version)
	}
	if err := ReadFrameBytes(r, hdr[1:]); err != nil {
		return 0, 0, fmt.Errorf("%s: header: %w", wire, err)
	}
	if payload = int(leU32(hdr[2:])); payload > max {
		return 0, 0, fmt.Errorf("%s: payload of %d bytes exceeds the maximum %d", wire, payload, max)
	}
	return hdr[1], payload, nil
}

// ReadFrameBytes fills b from r inside a frame, where the stream ending
// is corruption, not a clean end: io.EOF becomes io.ErrUnexpectedEOF.
func ReadFrameBytes(r io.Reader, b []byte) error {
	if _, err := io.ReadAtLeast(r, b, len(b)); err != io.EOF {
		return err
	}
	return io.ErrUnexpectedEOF
}

// FrameType discriminates the payloads of the mutation wire protocol.
type FrameType byte

// Frame types. Batch flows client→server; Ack and Nak are the server's
// per-frame replies.
const (
	FrameBatch FrameType = 1
	FrameAck   FrameType = 2
	FrameNak   FrameType = 3
)

// String returns the mnemonic used in error messages.
func (t FrameType) String() string {
	switch t {
	case FrameBatch:
		return "batch"
	case FrameAck:
		return "ack"
	case FrameNak:
		return "nak"
	default:
		return fmt.Sprintf("frame(%d)", byte(t))
	}
}

// NakCode classifies a negative acknowledgement.
type NakCode byte

// Nak codes. Backpressure is retryable (the batch was not enqueued);
// Malformed means the connection is being closed on a protocol error;
// Shutdown means the server is draining — the batch was not enqueued and
// the producer should fail over or resend after the daemon restarts,
// not retry this connection.
const (
	NakBackpressure NakCode = 1
	NakMalformed    NakCode = 2
	NakShutdown     NakCode = 3
)

// MaxWireBatch bounds the mutations one batch frame may carry (≈18 MiB
// of payload), mirroring the JSON plane's 64 MiB body limit at the
// denser binary encoding. Larger streams chunk into multiple frames.
const MaxWireBatch = 2 << 20

// wireMutationSize is the fixed on-wire size of one mutation.
const wireMutationSize = 9

// maxWirePayload is the largest payload any frame type can legitimately
// declare (a maximal batch); a header claiming more is rejected before
// any allocation.
const maxWirePayload = 4 + MaxWireBatch*wireMutationSize

// Ack is the payload of a FrameAck: the server accepted this frame's
// Accepted mutations and Queued are now pending across all shards.
type Ack struct {
	Accepted uint32
	Queued   uint32
}

// Nak is the payload of a FrameNak. RetryAfterMillis is the server's
// backoff hint (meaningful for NakBackpressure; 0 otherwise).
type Nak struct {
	Code             NakCode
	RetryAfterMillis uint32
}

// Frame is one decoded wire frame. Exactly the field matching Type is
// meaningful.
type Frame struct {
	Type  FrameType
	Batch Batch
	Ack   Ack
	Nak   Nak
}

// AppendBatchFrame appends the complete wire encoding of b to dst and
// returns the extended slice — the allocation-free path loadgen and the
// binary ingest plane's replies use. Batches over MaxWireBatch or
// containing out-of-range IDs or kinds must be chunked/validated by the
// caller; this encoder checks and returns an error rather than emitting
// a frame no reader would accept.
func AppendBatchFrame(dst []byte, b Batch) ([]byte, error) {
	if len(b) > MaxWireBatch {
		return dst, fmt.Errorf("graph wire: batch of %d mutations exceeds the frame maximum %d", len(b), MaxWireBatch)
	}
	for i, mu := range b {
		if mu.Kind < MutAddVertex || mu.Kind > MutRemoveEdge {
			return dst, fmt.Errorf("graph wire: mutation %d has invalid kind %d", i, mu.Kind)
		}
		if err := checkWireVertex(mu.U); err != nil {
			return dst, fmt.Errorf("graph wire: mutation %d u: %w", i, err)
		}
		if mu.Kind == MutAddEdge || mu.Kind == MutRemoveEdge {
			if err := checkWireVertex(mu.V); err != nil {
				return dst, fmt.Errorf("graph wire: mutation %d v: %w", i, err)
			}
		}
	}
	dst = AppendFrameHeader(dst, WireVersion, byte(FrameBatch), 4+len(b)*wireMutationSize)
	dst = appendU32(dst, uint32(len(b)))
	for _, mu := range b {
		dst = append(dst, byte(mu.Kind))
		dst = appendU32(dst, uint32(mu.U))
		v := VertexID(0)
		if mu.Kind == MutAddEdge || mu.Kind == MutRemoveEdge {
			v = mu.V
		}
		dst = appendU32(dst, uint32(v))
	}
	return dst, nil
}

// WriteBatchFrame encodes b as one batch frame onto w.
func WriteBatchFrame(w io.Writer, b Batch) error {
	buf, err := AppendBatchFrame(nil, b)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// AppendAckFrame appends an ack frame to dst.
func AppendAckFrame(dst []byte, a Ack) []byte {
	dst = AppendFrameHeader(dst, WireVersion, byte(FrameAck), 8)
	dst = appendU32(dst, a.Accepted)
	return appendU32(dst, a.Queued)
}

// AppendNakFrame appends a nak frame to dst.
func AppendNakFrame(dst []byte, n Nak) []byte {
	dst = AppendFrameHeader(dst, WireVersion, byte(FrameNak), 5)
	dst = append(dst, byte(n.Code))
	return appendU32(dst, n.RetryAfterMillis)
}

// ReadFrame reads exactly one frame from r. Truncated input, unknown
// versions/types/kinds, out-of-range vertex IDs, oversized or
// inconsistent lengths all yield errors; the payload is read
// incrementally so a lying header hits EOF long before its claimed
// allocation. io.EOF is returned bare only when the stream ends cleanly
// between frames (a half-read frame is io.ErrUnexpectedEOF).
func ReadFrame(r io.Reader) (Frame, error) {
	t, payload, err := ReadFrameHeader(r, "graph wire", WireVersion, maxWirePayload)
	if err != nil {
		return Frame{}, err
	}
	switch FrameType(t) {
	case FrameBatch:
		return readBatchPayload(r, payload)
	case FrameAck:
		if payload != 8 {
			return Frame{}, fmt.Errorf("graph wire: ack payload is %d bytes, want 8", payload)
		}
		var buf [8]byte
		if err := ReadFrameBytes(r, buf[:]); err != nil {
			return Frame{}, fmt.Errorf("graph wire: ack: %w", err)
		}
		return Frame{Type: FrameAck, Ack: Ack{Accepted: leU32(buf[0:4]), Queued: leU32(buf[4:8])}}, nil
	case FrameNak:
		if payload != 5 {
			return Frame{}, fmt.Errorf("graph wire: nak payload is %d bytes, want 5", payload)
		}
		var buf [5]byte
		if err := ReadFrameBytes(r, buf[:]); err != nil {
			return Frame{}, fmt.Errorf("graph wire: nak: %w", err)
		}
		code := NakCode(buf[0])
		if code != NakBackpressure && code != NakMalformed && code != NakShutdown {
			return Frame{}, fmt.Errorf("graph wire: unknown nak code %d", buf[0])
		}
		return Frame{Type: FrameNak, Nak: Nak{Code: code, RetryAfterMillis: leU32(buf[1:5])}}, nil
	default:
		return Frame{}, fmt.Errorf("graph wire: unknown frame type %d", t)
	}
}

func readBatchPayload(r io.Reader, payload int) (Frame, error) {
	if payload < 4 {
		return Frame{}, fmt.Errorf("graph wire: batch payload of %d bytes lacks a count", payload)
	}
	var cntBuf [4]byte
	if err := ReadFrameBytes(r, cntBuf[:]); err != nil {
		return Frame{}, fmt.Errorf("graph wire: batch count: %w", err)
	}
	count := int(leU32(cntBuf[:]))
	if count > MaxWireBatch {
		return Frame{}, fmt.Errorf("graph wire: batch of %d mutations exceeds the frame maximum %d", count, MaxWireBatch)
	}
	if payload != 4+count*wireMutationSize {
		return Frame{}, fmt.Errorf("graph wire: batch payload %d bytes does not match count %d (want %d)",
			payload, count, 4+count*wireMutationSize)
	}
	// Read mutation-by-mutation: a frame lying about count fails at EOF
	// without ever allocating for the claim.
	b := make(Batch, 0, min(count, 1<<16))
	var mbuf [wireMutationSize]byte
	for i := 0; i < count; i++ {
		if err := ReadFrameBytes(r, mbuf[:]); err != nil {
			return Frame{}, fmt.Errorf("graph wire: mutation %d: %w", i, err)
		}
		kind := MutationKind(mbuf[0])
		if kind < MutAddVertex || kind > MutRemoveEdge {
			return Frame{}, fmt.Errorf("graph wire: mutation %d has invalid kind %d", i, mbuf[0])
		}
		u := int32(leU32(mbuf[1:5]))
		v := int32(leU32(mbuf[5:9]))
		if err := checkWireVertex(VertexID(u)); err != nil {
			return Frame{}, fmt.Errorf("graph wire: mutation %d u: %w", i, err)
		}
		mu := Mutation{Kind: kind, U: VertexID(u)}
		switch kind {
		case MutAddEdge, MutRemoveEdge:
			if err := checkWireVertex(VertexID(v)); err != nil {
				return Frame{}, fmt.Errorf("graph wire: mutation %d v: %w", i, err)
			}
			mu.V = VertexID(v)
		default:
			if v != 0 {
				return Frame{}, fmt.Errorf("graph wire: mutation %d is a vertex op with non-zero v %d", i, v)
			}
		}
		b = append(b, mu)
	}
	return Frame{Type: FrameBatch, Batch: b}, nil
}

// checkWireVertex enforces the same ID bounds as every other ingest
// surface (the dense vertex table must never be sized by a hostile ID).
func checkWireVertex(v VertexID) error {
	if v < 0 {
		return fmt.Errorf("vertex id %d is negative", int64(v))
	}
	if v > MaxReadVertexID {
		return fmt.Errorf("vertex id %d exceeds the supported maximum %d", int64(v), int64(MaxReadVertexID))
	}
	return nil
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
