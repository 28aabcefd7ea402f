package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"

	"xdgp/internal/graph"
)

// This file is the cluster RPC's frame codec. It shares the binary
// ingest plane's frame header and its reader (graph.AppendFrameHeader,
// graph.ReadFrameHeader): u8 version, u8 type, u32 little-endian payload
// length, followed by the payload. Every length is bounded before
// allocation and every multi-byte integer is little-endian; a malformed
// frame is an error, never a panic, which the fuzz target
// (FuzzReadFrame) enforces.
//
// Frame types:
//
//	Hello     → u32 shard, u32 shards, u64 configHash, u64 watermark.
//	            First frame on every connection, both directions. The
//	            watermark is the sender's completed round: the receiver
//	            resends journal entries above it.
//	HelloAck  → u64 watermark. The accepting side's completed round;
//	            the dialer resends its own journaled payloads above it.
//	Round     → u64 round, u32 shard, rest = opaque round payload.
//	CaughtUp  → empty. Ends the accepting side's catch-up push; the
//	            dialer may start live rounds once every peer sent one.
//	Reject    → UTF-8 reason. Fatal handshake refusal (config mismatch,
//	            journal gap); the receiver poisons its exchange.

// WireVersion is the cluster RPC frame format version. It changes with
// any frame or round payload layout, so that peers of different builds
// refuse each other at the first frame.
const WireVersion = 2

// FrameType identifies a cluster RPC frame.
type FrameType byte

// The cluster RPC frame types.
const (
	FrameHello    FrameType = 1
	FrameHelloAck FrameType = 2
	FrameRound    FrameType = 3
	FrameCaughtUp FrameType = 4
	FrameReject   FrameType = 5
)

// String names the frame type for logs and errors.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameHelloAck:
		return "helloack"
	case FrameRound:
		return "round"
	case FrameCaughtUp:
		return "caughtup"
	case FrameReject:
		return "reject"
	default:
		return fmt.Sprintf("type(%d)", byte(t))
	}
}

// MaxRoundPayload bounds one round payload on the wire: a full batch
// round (2M mutations × 9 bytes) plus headroom for the step decisions
// of very large frontiers.
const MaxRoundPayload = 64 << 20

// maxRejectReason bounds the Reject frame's reason string.
const maxRejectReason = 1 << 10

// Hello is the handshake frame: who is dialing, the cluster geometry
// and config fingerprint it was started with, and the highest round it
// has already completed.
type Hello struct {
	Shard      uint32
	Shards     uint32
	ConfigHash uint64
	Watermark  uint64
}

// Round is one shard's payload for one numbered round.
type Round struct {
	Round   uint64
	Shard   uint32
	Payload []byte
}

// Frame is one decoded cluster RPC frame; the field matching Type is
// populated.
type Frame struct {
	Type FrameType
	// Hello is set for FrameHello.
	Hello Hello
	// Watermark is set for FrameHelloAck.
	Watermark uint64
	// Round is set for FrameRound; its Payload is freshly allocated per
	// frame, so callers own it.
	Round Round
	// Reason is set for FrameReject.
	Reason string
}

func appendHeader(dst []byte, t FrameType, payload int) []byte {
	return graph.AppendFrameHeader(dst, WireVersion, byte(t), payload)
}

// AppendHelloFrame appends an encoded Hello frame to dst.
func AppendHelloFrame(dst []byte, h Hello) []byte {
	dst = appendHeader(dst, FrameHello, 24)
	dst = binary.LittleEndian.AppendUint32(dst, h.Shard)
	dst = binary.LittleEndian.AppendUint32(dst, h.Shards)
	dst = binary.LittleEndian.AppendUint64(dst, h.ConfigHash)
	return binary.LittleEndian.AppendUint64(dst, h.Watermark)
}

// AppendHelloAckFrame appends an encoded HelloAck frame to dst.
func AppendHelloAckFrame(dst []byte, watermark uint64) []byte {
	dst = appendHeader(dst, FrameHelloAck, 8)
	return binary.LittleEndian.AppendUint64(dst, watermark)
}

// AppendRoundFrame appends an encoded Round frame to dst.
func AppendRoundFrame(dst []byte, r Round) ([]byte, error) {
	if len(r.Payload) > MaxRoundPayload {
		return dst, fmt.Errorf("cluster: round payload %d bytes exceeds the wire maximum %d", len(r.Payload), MaxRoundPayload)
	}
	dst = appendHeader(dst, FrameRound, 12+len(r.Payload))
	dst = binary.LittleEndian.AppendUint64(dst, r.Round)
	dst = binary.LittleEndian.AppendUint32(dst, r.Shard)
	return append(dst, r.Payload...), nil
}

// AppendCaughtUpFrame appends an encoded CaughtUp frame to dst.
func AppendCaughtUpFrame(dst []byte) []byte {
	return appendHeader(dst, FrameCaughtUp, 0)
}

// AppendRejectFrame appends an encoded Reject frame to dst, truncating
// overlong reasons.
func AppendRejectFrame(dst []byte, reason string) []byte {
	if len(reason) > maxRejectReason {
		reason = reason[:maxRejectReason]
	}
	dst = appendHeader(dst, FrameReject, len(reason))
	return append(dst, reason...)
}

// ReadFrame reads and validates one cluster RPC frame. Errors are
// terminal for the connection: framing cannot re-align after garbage.
func ReadFrame(r *bufio.Reader) (Frame, error) {
	typ, n, err := graph.ReadFrameHeader(r, "cluster", WireVersion, MaxRoundPayload+12)
	if err != nil {
		return Frame{}, err
	}
	t := FrameType(typ)
	switch t {
	case FrameHello:
		if n != 24 {
			return Frame{}, fmt.Errorf("cluster: hello frame payload must be 24 bytes, got %d", n)
		}
		var b [24]byte
		if err := graph.ReadFrameBytes(r, b[:]); err != nil {
			return Frame{}, err
		}
		return Frame{Type: t, Hello: Hello{
			Shard:      binary.LittleEndian.Uint32(b[0:]),
			Shards:     binary.LittleEndian.Uint32(b[4:]),
			ConfigHash: binary.LittleEndian.Uint64(b[8:]),
			Watermark:  binary.LittleEndian.Uint64(b[16:]),
		}}, nil
	case FrameHelloAck:
		if n != 8 {
			return Frame{}, fmt.Errorf("cluster: helloack frame payload must be 8 bytes, got %d", n)
		}
		var b [8]byte
		if err := graph.ReadFrameBytes(r, b[:]); err != nil {
			return Frame{}, err
		}
		return Frame{Type: t, Watermark: binary.LittleEndian.Uint64(b[:])}, nil
	case FrameRound:
		if n < 12 {
			return Frame{}, fmt.Errorf("cluster: round frame payload must be ≥ 12 bytes, got %d", n)
		}
		var b [12]byte
		if err := graph.ReadFrameBytes(r, b[:]); err != nil {
			return Frame{}, err
		}
		payload := make([]byte, n-12)
		if err := graph.ReadFrameBytes(r, payload); err != nil {
			return Frame{}, err
		}
		return Frame{Type: t, Round: Round{
			Round:   binary.LittleEndian.Uint64(b[0:]),
			Shard:   binary.LittleEndian.Uint32(b[8:]),
			Payload: payload,
		}}, nil
	case FrameCaughtUp:
		if n != 0 {
			return Frame{}, fmt.Errorf("cluster: caughtup frame payload must be empty, got %d bytes", n)
		}
		return Frame{Type: t}, nil
	case FrameReject:
		if n > maxRejectReason {
			return Frame{}, fmt.Errorf("cluster: reject reason %d bytes exceeds the maximum %d", n, maxRejectReason)
		}
		b := make([]byte, n)
		if err := graph.ReadFrameBytes(r, b); err != nil {
			return Frame{}, err
		}
		return Frame{Type: t, Reason: string(b)}, nil
	default:
		return Frame{}, fmt.Errorf("cluster: unknown frame type %d", typ)
	}
}
