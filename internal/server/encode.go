package server

import (
	"encoding/json"
	"io"
	"strconv"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// This file holds the hand-written encoders of the two replication hot
// paths: GET /v1/watch lines and paged POST /v1/placements replies. Both
// write exactly the bytes encoding/json writes for the same value —
// json.Encoder for a watch line, readplane.WriteJSON's two-space indent
// for a page (encode_test.go pins both) — without reflection, and hand
// them to the connection in wireChunk-sized writes, so the buffer stays
// bounded however large an epoch or page is.

// wireChunk is the write size of the hand-written encoders.
const wireChunk = 16 << 10

// wireSlack covers one appended entry (a change or placement with three
// 20-digit fields) past wireChunk before the next spill check.
const wireSlack = 256

// chunkWriter accumulates encoded bytes and hands them to w in writes of
// about wireChunk bytes. The first write error sticks; later writes are
// skipped.
type chunkWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func newChunkWriter(w io.Writer) *chunkWriter {
	return &chunkWriter{w: w, buf: make([]byte, 0, wireChunk+wireSlack)}
}

// spill writes the buffer out once it holds a chunk.
func (c *chunkWriter) spill() {
	if len(c.buf) >= wireChunk {
		c.flush() //nolint:errcheck // sticky; reported by the final flush
	}
}

// flush writes out whatever the buffer holds and returns the sticky error.
func (c *chunkWriter) flush() error {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
	return c.err
}

// watchEvent writes ev as one NDJSON line, byte-identical to
// json.NewEncoder(w).Encode(ev).
func (c *chunkWriter) watchEvent(ev watchEvent) error {
	c.buf = append(c.buf, '{')
	if ev.Resync {
		c.buf = append(c.buf, `"resync":true,`...)
	}
	c.buf = append(c.buf, `"epoch":`...)
	c.buf = strconv.AppendUint(c.buf, ev.Epoch, 10)
	if len(ev.Changes) > 0 {
		c.buf = append(c.buf, `,"changes":[`...)
		for i, ch := range ev.Changes {
			if i > 0 {
				c.buf = append(c.buf, ',')
			}
			c.buf = append(c.buf, `{"vertex":`...)
			c.buf = strconv.AppendInt(c.buf, ch.Vertex, 10)
			c.buf = append(c.buf, `,"from":`...)
			c.buf = strconv.AppendInt(c.buf, ch.From, 10)
			c.buf = append(c.buf, `,"to":`...)
			c.buf = strconv.AppendInt(c.buf, ch.To, 10)
			c.buf = append(c.buf, '}')
			c.spill()
		}
		c.buf = append(c.buf, ']')
	}
	c.buf = append(c.buf, "}\n"...)
	return c.flush()
}

// writePage writes the paged POST /v1/placements reply (PageResponse)
// for the slots [cursor, cursor+limit) of table, straight from
// Frozen.Scan, byte-identical to readplane.WriteJSON's rendering of the
// same PageResponse. visit sees every vertex written. It returns the
// number of placements written.
func writePage(w io.Writer, instance string, epoch uint64, table *partition.Frozen,
	cursor, limit int64, visit func(graph.VertexID)) (int, error) {
	slots := int64(table.Slots())
	end, next := slots, int64(-1)
	if cursor < slots && limit < slots-cursor {
		end, next = cursor+limit, cursor+limit
	}
	// json.Marshal, not a hand-rolled quote: the token's escaping (HTML
	// characters included) must stay exactly encoding/json's.
	inst, err := json.Marshal(instance)
	if err != nil {
		return 0, err
	}
	c := newChunkWriter(w)
	c.buf = append(c.buf, "{\n  \"epoch\": "...)
	c.buf = strconv.AppendUint(c.buf, epoch, 10)
	c.buf = append(c.buf, ",\n  \"instance\": "...)
	c.buf = append(c.buf, inst...)
	c.buf = append(c.buf, ",\n  \"k\": "...)
	c.buf = strconv.AppendInt(c.buf, int64(table.K()), 10)
	c.buf = append(c.buf, ",\n  \"slots\": "...)
	c.buf = strconv.AppendInt(c.buf, slots, 10)
	c.buf = append(c.buf, ",\n  \"next_cursor\": "...)
	c.buf = strconv.AppendInt(c.buf, next, 10)
	c.buf = append(c.buf, ",\n  \"placements\": ["...)
	n := 0
	table.Scan(int(cursor), int(end), func(v graph.VertexID, p partition.ID) {
		if n > 0 {
			c.buf = append(c.buf, ',')
		}
		c.buf = append(c.buf, "\n    {\n      \"vertex\": "...)
		c.buf = strconv.AppendInt(c.buf, int64(v), 10)
		c.buf = append(c.buf, ",\n      \"partition\": "...)
		c.buf = strconv.AppendInt(c.buf, int64(p), 10)
		c.buf = append(c.buf, "\n    }"...)
		n++
		visit(v)
		c.spill()
	})
	if n > 0 {
		c.buf = append(c.buf, "\n  "...)
	}
	c.buf = append(c.buf, "]\n}\n"...)
	return n, c.flush()
}
