package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"xdgp/internal/core"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// This file defines the two round payload kinds the daemon exchanges.
// The transport treats payloads as opaque bytes; the kinds live here so
// every replica decodes them identically.
//
// Batch payload ('B'): the mutations one shard ingested this tick, plus
// an FNV-1a hash of the sender's current assignment (divergence
// tripwire — replicas of a deterministic state machine must agree on it
// every tick) and a more-pending flag that drives the cluster-wide
// drain loop. The mutation list reuses the binary ingest plane's
// fuzz-hardened batch frame codec verbatim.
//
// Step payload ('S'): one shard's core.ShardDecision — the requests,
// keeps and parks of its slice of the sweep — in a flat
// little-endian layout with every length bounded before allocation.

// Payload kind tags (first byte of every round payload).
const (
	// PayloadBatch tags a batch-round payload.
	PayloadBatch byte = 'B'
	// PayloadStep tags a step-round payload.
	PayloadStep byte = 'S'
)

// PayloadKind returns the kind tag of an encoded round payload (0 when
// empty).
func PayloadKind(b []byte) byte {
	if len(b) == 0 {
		return 0
	}
	return b[0]
}

// BatchPayload is one shard's contribution to a tick's batch round.
type BatchPayload struct {
	// StateHash fingerprints the sender's assignment before this tick's
	// batch applies; all shards must agree or the cluster has diverged.
	StateHash uint64
	// MorePending reports mutations still queued behind this batch:
	// the cluster-wide drain keeps ticking while any shard says true.
	MorePending bool
	// Batch is the shard's drained mutations for this tick.
	Batch graph.Batch
}

// AppendBatchPayload appends an encoded batch-round payload to dst.
func AppendBatchPayload(dst []byte, p BatchPayload) ([]byte, error) {
	dst = append(dst, PayloadBatch)
	dst = binary.LittleEndian.AppendUint64(dst, p.StateHash)
	if p.MorePending {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return graph.AppendBatchFrame(dst, p.Batch)
}

// DecodeBatchPayload decodes a batch-round payload.
func DecodeBatchPayload(b []byte) (BatchPayload, error) {
	if len(b) < 10 || b[0] != PayloadBatch {
		return BatchPayload{}, fmt.Errorf("cluster: malformed batch payload (%d bytes)", len(b))
	}
	p := BatchPayload{
		StateHash:   binary.LittleEndian.Uint64(b[1:]),
		MorePending: b[9] != 0,
	}
	f, err := graph.ReadFrame(bytes.NewReader(b[10:]))
	if err != nil {
		return BatchPayload{}, fmt.Errorf("cluster: batch payload mutations: %w", err)
	}
	if f.Type != graph.FrameBatch {
		return BatchPayload{}, fmt.Errorf("cluster: batch payload carries a %v frame, want batch", f.Type)
	}
	p.Batch = f.Batch
	return p, nil
}

// maxStepItems bounds every per-list length in a step payload; it is
// far above any real frontier (vertex IDs are int32) and keeps a
// hostile length field from allocating unbounded memory.
const maxStepItems = 1 << 28

// AppendStepPayload appends an encoded step-round payload to dst.
func AppendStepPayload(dst []byte, d *core.ShardDecision) ([]byte, error) {
	total := 0
	for _, reqs := range d.Reqs {
		total += len(reqs)
	}
	if total > maxStepItems || len(d.Cands) > maxStepItems ||
		len(d.Keeps) > maxStepItems || len(d.Parks) > maxStepItems || len(d.ParkDests) > maxStepItems {
		return dst, fmt.Errorf("cluster: step payload too large to encode")
	}
	dst = append(dst, PayloadStep)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(d.Examined))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(d.Requested))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(d.Reqs)))
	for _, reqs := range d.Reqs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(reqs)))
		for _, r := range reqs {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(r.V))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Off))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(r.N))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(r.W))
		}
	}
	dst = appendIDList(dst, d.Cands)
	dst = appendVertexList(dst, d.Keeps)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(d.Parks)))
	for _, pk := range d.Parks {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(pk.V))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(pk.Off))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(pk.N))
	}
	dst = appendIDList(dst, d.ParkDests)
	return dst, nil
}

func appendIDList(dst []byte, ids []partition.ID) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	}
	return dst
}

func appendVertexList(dst []byte, vs []graph.VertexID) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vs)))
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// stepDecoder is a sticky-error cursor over an encoded step payload.
type stepDecoder struct {
	b   []byte
	off int
	err error
}

func (d *stepDecoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.b) {
		d.err = fmt.Errorf("cluster: truncated step payload at byte %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

// count reads a list length and validates it against both the item
// bound and the bytes actually remaining (itemLen bytes per element),
// so a hostile length cannot drive a huge allocation.
func (d *stepDecoder) count(itemLen int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n < 0 || n > maxStepItems || n*itemLen > len(d.b)-d.off {
		d.err = fmt.Errorf("cluster: step payload length %d exceeds the remaining %d bytes", n, len(d.b)-d.off)
		return 0
	}
	return n
}

func (d *stepDecoder) idList() []partition.ID {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]partition.ID, n)
	for i := range out {
		out[i] = partition.ID(d.u32())
	}
	return out
}

func (d *stepDecoder) vertexList() []graph.VertexID {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]graph.VertexID, n)
	for i := range out {
		out[i] = graph.VertexID(d.u32())
	}
	return out
}

// DecodeStepPayload decodes a step-round payload. Range checks beyond
// structural bounds (candidate offsets, destination indices) are the
// apply phase's job — it validates against the live K and arena sizes.
func DecodeStepPayload(b []byte) (*core.ShardDecision, error) {
	if len(b) == 0 || b[0] != PayloadStep {
		return nil, fmt.Errorf("cluster: malformed step payload (%d bytes)", len(b))
	}
	d := &stepDecoder{b: b, off: 1}
	out := &core.ShardDecision{
		Examined:  int(d.u32()),
		Requested: int(d.u32()),
	}
	k := d.count(4)
	if d.err == nil {
		out.Reqs = make([][]core.ClusterReq, k)
		for i := 0; i < k && d.err == nil; i++ {
			n := d.count(16)
			if n == 0 {
				continue
			}
			reqs := make([]core.ClusterReq, n)
			for j := range reqs {
				reqs[j] = core.ClusterReq{
					V:   graph.VertexID(d.u32()),
					Off: int32(d.u32()),
					N:   int32(d.u32()),
					W:   int32(d.u32()),
				}
			}
			out.Reqs[i] = reqs
		}
	}
	out.Cands = d.idList()
	out.Keeps = d.vertexList()
	nParks := d.count(12)
	if d.err == nil && nParks > 0 {
		out.Parks = make([]core.ClusterPark, nParks)
		for i := range out.Parks {
			out.Parks[i] = core.ClusterPark{
				V:   graph.VertexID(d.u32()),
				Off: int32(d.u32()),
				N:   int32(d.u32()),
			}
		}
	}
	out.ParkDests = d.idList()
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("cluster: %d trailing bytes after step payload", len(d.b)-d.off)
	}
	return out, nil
}
