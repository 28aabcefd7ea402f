package cluster

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"

	"xdgp/internal/core"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

func readOne(t *testing.T, b []byte) Frame {
	t.Helper()
	f, err := ReadFrame(bufio.NewReader(bytes.NewReader(b)))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return f
}

func TestWireRoundtrip(t *testing.T) {
	h := Hello{Shard: 2, Shards: 3, ConfigHash: 0xdeadbeefcafe, Watermark: 41}
	if got := readOne(t, AppendHelloFrame(nil, h)); got.Type != FrameHello || got.Hello != h {
		t.Fatalf("hello roundtrip: %+v", got)
	}
	if got := readOne(t, AppendHelloAckFrame(nil, 99)); got.Type != FrameHelloAck || got.Watermark != 99 {
		t.Fatalf("helloack roundtrip: %+v", got)
	}
	frame, err := AppendRoundFrame(nil, Round{Round: 7, Shard: 1, Payload: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	got := readOne(t, frame)
	if got.Type != FrameRound || got.Round.Round != 7 || got.Round.Shard != 1 || string(got.Round.Payload) != "payload" {
		t.Fatalf("round roundtrip: %+v", got)
	}
	if got := readOne(t, AppendCaughtUpFrame(nil)); got.Type != FrameCaughtUp {
		t.Fatalf("caughtup roundtrip: %+v", got)
	}
	if got := readOne(t, AppendRejectFrame(nil, "nope")); got.Type != FrameReject || got.Reason != "nope" {
		t.Fatalf("reject roundtrip: %+v", got)
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	const v = WireVersion
	cases := [][]byte{
		{v - 1, byte(FrameHello), 24, 0, 0, 0},     // the previous version
		{v + 1, byte(FrameHello), 24, 0, 0, 0},     // a later version
		{v, 42, 0, 0, 0, 0},                        // unknown type
		{v, byte(FrameHello), 5, 0, 0, 0, 1, 2, 3}, // wrong hello length
		{v, byte(FrameRound), 4, 0, 0, 0, 1, 2, 3}, // round too short
		{v, byte(FrameRound), 0, 0, 0, 255},        // oversized payload length
		{v, byte(FrameCaughtUp), 1, 0, 0, 0, 9},    // caughtup with payload
		{v, byte(FrameHelloAck), 8, 0, 0, 0, 1, 2}, // truncated body
	}
	for i, b := range cases {
		if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(b))); err == nil {
			t.Fatalf("case %d: garbage frame accepted", i)
		}
	}
	// A peer of the previous version is refused at its first frame.
	hello := AppendHelloFrame(nil, Hello{Shard: 1, Shards: 2})
	hello[0] = WireVersion - 1
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hello))); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("previous-version hello: got %v, want a version error", err)
	}
	// A clean EOF between frames is io.EOF, not corruption.
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(nil))); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

func TestBatchPayloadRoundtrip(t *testing.T) {
	b := graph.Batch{
		{Kind: graph.MutAddEdge, U: 1, V: 2},
		{Kind: graph.MutAddEdge, U: 2, V: 3},
	}
	enc, err := AppendBatchPayload(nil, BatchPayload{StateHash: 77, MorePending: true, Batch: b})
	if err != nil {
		t.Fatal(err)
	}
	if PayloadKind(enc) != PayloadBatch {
		t.Fatalf("kind = %c", PayloadKind(enc))
	}
	got, err := DecodeBatchPayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.StateHash != 77 || !got.MorePending || len(got.Batch) != 2 || got.Batch[1] != b[1] {
		t.Fatalf("batch roundtrip: %+v", got)
	}
	if _, err := DecodeBatchPayload(enc[:5]); err == nil {
		t.Fatal("truncated batch payload accepted")
	}
}

func TestStepPayloadRoundtrip(t *testing.T) {
	d := &core.ShardDecision{
		Examined:  12,
		Requested: 3,
		Reqs: [][]core.ClusterReq{
			nil,
			{{V: 5, Off: 0, N: 2, W: 1}, {V: 9, Off: 2, N: 1, W: 4}},
			{{V: 30, Off: 3, N: 1, W: 1}},
		},
		Cands:     []partition.ID{2, 0, 1, 0},
		Keeps:     []graph.VertexID{5, 9, 30},
		Parks:     []core.ClusterPark{{V: 17, Off: 0, N: 1}},
		ParkDests: []partition.ID{2},
	}
	enc, err := AppendStepPayload(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if PayloadKind(enc) != PayloadStep {
		t.Fatalf("kind = %c", PayloadKind(enc))
	}
	got, err := DecodeStepPayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Examined != d.Examined || got.Requested != d.Requested ||
		len(got.Reqs) != 3 || len(got.Reqs[1]) != 2 || got.Reqs[1][1] != d.Reqs[1][1] ||
		len(got.Cands) != 4 || got.Cands[0] != 2 ||
		len(got.Keeps) != 3 || got.Keeps[2] != 30 ||
		len(got.Parks) != 1 || got.Parks[0] != d.Parks[0] ||
		len(got.ParkDests) != 1 || got.ParkDests[0] != 2 {
		t.Fatalf("step roundtrip mismatch: %+v", got)
	}
	// Truncations and trailing garbage are rejected at every boundary.
	for cut := 1; cut < len(enc); cut += 7 {
		if _, err := DecodeStepPayload(enc[:cut]); err == nil {
			t.Fatalf("truncated step payload of %d bytes accepted", cut)
		}
	}
	if _, err := DecodeStepPayload(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// FuzzReadFrame hammers the cluster RPC frame decoder with arbitrary
// bytes: it must never panic or over-allocate, and every frame it does
// accept must re-encode to bytes it accepts again.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendHelloFrame(nil, Hello{Shard: 1, Shards: 3, ConfigHash: 9, Watermark: 2}))
	f.Add(AppendHelloAckFrame(nil, 7))
	if rf, err := AppendRoundFrame(nil, Round{Round: 3, Shard: 0, Payload: []byte{1, 2, 3}}); err == nil {
		f.Add(rf)
	}
	f.Add(AppendCaughtUpFrame(nil))
	f.Add(AppendRejectFrame(nil, "reason"))
	f.Add([]byte{WireVersion, 3, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var enc []byte
		switch fr.Type {
		case FrameHello:
			enc = AppendHelloFrame(nil, fr.Hello)
		case FrameHelloAck:
			enc = AppendHelloAckFrame(nil, fr.Watermark)
		case FrameRound:
			enc, err = AppendRoundFrame(nil, fr.Round)
			if err != nil {
				t.Fatalf("decoded round frame does not re-encode: %v", err)
			}
		case FrameCaughtUp:
			enc = AppendCaughtUpFrame(nil)
		case FrameReject:
			enc = AppendRejectFrame(nil, fr.Reason)
		}
		if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc))); err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
	})
}

// FuzzDecodeStepPayload hammers the step-decision decoder: arbitrary
// bytes must never panic, and accepted decisions must re-encode.
func FuzzDecodeStepPayload(f *testing.F) {
	seed, _ := AppendStepPayload(nil, &core.ShardDecision{
		Examined: 2, Requested: 1,
		Reqs:  [][]core.ClusterReq{{{V: 1, Off: 0, N: 1, W: 1}}},
		Cands: []partition.ID{1},
		Keeps: []graph.VertexID{1},
	})
	f.Add(seed)
	f.Add([]byte{'S', 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeStepPayload(data)
		if err != nil {
			return
		}
		if _, err := AppendStepPayload(nil, d); err != nil {
			t.Fatalf("decoded step payload does not re-encode: %v", err)
		}
	})
}
