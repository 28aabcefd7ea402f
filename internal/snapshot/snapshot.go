// Package snapshot implements the versioned binary checkpoint format of
// the streaming partition daemon (cmd/apartd): a single file capturing
// the complete partitioner state — graph topology (including slot layout
// and free-list order), partition assignment, algorithm parameters,
// convergence bookkeeping, active-set scheduler state and heat — so that
// a restarted daemon resumes deterministically mid-stream, at any
// Parallelism.
//
// Format (little-endian throughout):
//
//	[8]byte  magic "XDGPSNAP"
//	u32      version (currently 5)
//	params   fixed-width algorithm parameters (see Params)
//	meta     daemon counters (see Meta)
//	u64 len + graph payload      (graph.AppendBinary)
//	i32 k, u32 slots, slots×i32  assignment table (partition.None = -1)
//	core     counters, optional active-set state, optional heat
//	         accumulator, optional cluster identity
//	u32      CRC-32 (IEEE) of every preceding byte
//
// Version 4 files also carry the resolved shard count in params and one
// serialized generator per shard after the counters; the reader skips
// both, since every draw is now keyed by (Seed, iteration, vertex).
//
// The trailing checksum makes torn or bit-rotted files fail loudly on
// Load; Save writes to a temporary file in the target directory and
// renames it into place, so a crash mid-checkpoint never clobbers the
// previous good snapshot.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"xdgp/internal/activeset"
	"xdgp/internal/core"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// Magic identifies a snapshot file; Version is the current format
// revision. Readers accept the current version and v4; older files are
// refused — restore them with a release that reads them, checkpoint, and
// upgrade.
const (
	Magic   = "XDGPSNAP"
	Version = 5 // v5: no shard count, no generator states
	// minReadVersion is the oldest version Read still understands.
	minReadVersion = 4
)

// maxFileBytes bounds a whole snapshot file through checkFileSize, which
// Write, Read and Load all apply, so a checkpoint that writes reads back.
const maxFileBytes = 1 << 31

func checkFileSize(n int64) error {
	if n > maxFileBytes {
		return fmt.Errorf("snapshot: %d bytes exceeds the maximum snapshot size %d", n, maxFileBytes)
	}
	return nil
}

// Params are the algorithm parameters a snapshot was taken under. They
// mirror core.Config minus the non-serializable Placer hook and
// Parallelism: placements do not depend on the shard count, so the
// restoring process chooses its own.
type Params struct {
	K                 int
	CapacityFactor    float64
	S                 float64
	ConvergenceWindow int
	MaxIterations     int
	Seed              int64
	Incremental       bool
	RecordEvery       int
	BalanceEdges      bool
	DisableQuotas     bool
	// WorkloadWeight is the workload term's strength (core.Config).
	WorkloadWeight float64
}

// ParamsOf derives the serializable parameters from a partitioner's
// configuration.
func ParamsOf(cfg core.Config) Params {
	return Params{
		K:                 cfg.K,
		CapacityFactor:    cfg.CapacityFactor,
		S:                 cfg.S,
		ConvergenceWindow: cfg.ConvergenceWindow,
		MaxIterations:     cfg.MaxIterations,
		Seed:              cfg.Seed,
		Incremental:       cfg.Incremental,
		RecordEvery:       cfg.RecordEvery,
		BalanceEdges:      cfg.BalanceEdges,
		DisableQuotas:     cfg.DisableQuotas,
		WorkloadWeight:    cfg.WorkloadWeight,
	}
}

// Config reconstructs the core configuration the snapshot was taken
// under, with one shard (core.DefaultConfig's); set Parallelism to run
// more. Placer is nil: the daemon's hash-with-fallback default, which is
// the only placement a snapshot can faithfully resume.
func (p Params) Config() core.Config {
	return core.Config{
		K:                 p.K,
		CapacityFactor:    p.CapacityFactor,
		S:                 p.S,
		ConvergenceWindow: p.ConvergenceWindow,
		MaxIterations:     p.MaxIterations,
		Seed:              p.Seed,
		Parallelism:       1,
		Incremental:       p.Incremental,
		RecordEvery:       p.RecordEvery,
		BalanceEdges:      p.BalanceEdges,
		DisableQuotas:     p.DisableQuotas,
		WorkloadWeight:    p.WorkloadWeight,
	}
}

// Meta carries the daemon's stream-position counters, so a restarted
// daemon reports cumulative totals and operators can correlate a
// snapshot with the stream offset it covers.
type Meta struct {
	// Ticks is the number of coalescing ticks processed.
	Ticks uint64
	// MutationsIngested counts mutations accepted over HTTP.
	MutationsIngested uint64
	// MutationsApplied counts mutations that changed the graph.
	MutationsApplied uint64
	// CreatedUnix is the checkpoint wall-clock time (seconds); zero when
	// unknown. Informational only — restore logic never reads it.
	CreatedUnix int64
}

// Snapshot is the in-memory form of a checkpoint. Its fields are deep
// copies owned exclusively by the snapshot (nothing aliases live
// partitioner state), so a captured snapshot may be written to disk from
// another goroutine while adaptation resumes — but a Snapshot itself is
// not synchronized: hand it off, don't share it.
type Snapshot struct {
	Params     Params
	Meta       Meta
	Graph      *graph.Graph
	Assignment *partition.Assignment
	Core       core.State
	// Cluster records which cluster shard took the checkpoint and how
	// many exchange rounds it had applied; nil for single-process
	// daemons.
	Cluster *ClusterIdentity
}

// ClusterIdentity pins a checkpoint to one shard of a cluster: the
// round count is the exchange watermark the restored replica replays
// from, and the server layer resumes a clustered checkpoint only as the
// same shard of the same geometry, whose journal that watermark indexes.
type ClusterIdentity struct {
	// ShardID is the checkpointing process's shard index.
	ShardID uint32
	// NumShards is the cluster size the checkpoint was taken under.
	NumShards uint32
	// RoundsCompleted is the number of exchange rounds applied before
	// the capture; rejoin replays journal rounds above it.
	RoundsCompleted uint64
}

// Capture assembles a snapshot from a live partitioner. The graph and
// assignment are deep-copied (Clone/Table), so the returned snapshot is
// immutable with respect to further partitioner progress; serialization
// happens only in Write, keeping Capture cheap — callers typically hold
// a lock that pauses adaptation while it runs. The caller must not run
// Step/ApplyBatch concurrently.
func Capture(p *core.Partitioner, cfg core.Config, meta Meta) (*Snapshot, error) {
	asn, err := partition.FromTable(p.Assignment().Table(), cfg.K)
	if err != nil {
		return nil, fmt.Errorf("snapshot: copy assignment: %w", err)
	}
	return &Snapshot{
		Params:     ParamsOf(cfg),
		Meta:       meta,
		Graph:      p.Graph().Clone(),
		Assignment: asn,
		Core:       p.ExportState(),
	}, nil
}

// NewPartitioner restores a live partitioner from the snapshot, with one
// shard (see Params.Config; core.Restore takes any other). The snapshot's
// graph and assignment are adopted by the partitioner (call Read again
// for an independent copy).
func (s *Snapshot) NewPartitioner() (*core.Partitioner, error) {
	return core.Restore(s.Graph, s.Assignment, s.Params.Config(), s.Core)
}

// Write serializes the snapshot to w in the versioned binary format.
func Write(w io.Writer, s *Snapshot) error {
	buf, err := encode(s)
	if err == nil {
		_, err = w.Write(buf)
	}
	return err
}

// encodedSize is the exact length of the file encode produces: header,
// params, meta, graph, assignment, core counters, three presence bytes
// and the CRC, plus the optional sections.
func encodedSize(s *Snapshot) int64 {
	n := len(Magic) + 4 + 67 + 32 + 8 + s.Graph.BinarySize() + 8 + 4 + 4*s.Assignment.Slots() +
		3*8 + 1 + 1 + 1 + 4
	if a := s.Core.Active; a != nil {
		n += 4 + 4*len(a.Frontier) + 4
		for _, list := range a.Parked {
			n += 4 + 4*len(list)
		}
	}
	if s.Core.Heat != nil {
		n += 4 + 4*len(s.Core.Heat)
	}
	if s.Cluster != nil {
		n += 16
	}
	return int64(n)
}

// encode renders the file into one buffer presized by encodedSize.
func encode(s *Snapshot) ([]byte, error) {
	size := encodedSize(s)
	if err := checkFileSize(size); err != nil {
		return nil, err
	}
	b := make([]byte, 0, size)
	b = append(b, Magic...)
	b = le.AppendUint32(b, Version)

	// Params: 6×8 + 1 + 8 + 1 + 1 + 8 = 67 bytes.
	b = le.AppendUint64(b, uint64(s.Params.K))
	b = le.AppendUint64(b, math.Float64bits(s.Params.CapacityFactor))
	b = le.AppendUint64(b, math.Float64bits(s.Params.S))
	b = le.AppendUint64(b, uint64(s.Params.ConvergenceWindow))
	b = le.AppendUint64(b, uint64(s.Params.MaxIterations))
	b = le.AppendUint64(b, uint64(s.Params.Seed))
	b = appendBool(b, s.Params.Incremental)
	b = le.AppendUint64(b, uint64(s.Params.RecordEvery))
	b = appendBool(b, s.Params.BalanceEdges)
	b = appendBool(b, s.Params.DisableQuotas)
	b = le.AppendUint64(b, math.Float64bits(s.Params.WorkloadWeight))

	// Meta: 4×8 = 32 bytes.
	b = le.AppendUint64(b, s.Meta.Ticks)
	b = le.AppendUint64(b, s.Meta.MutationsIngested)
	b = le.AppendUint64(b, s.Meta.MutationsApplied)
	b = le.AppendUint64(b, uint64(s.Meta.CreatedUnix))

	// Graph, length-prefixed.
	b = le.AppendUint64(b, uint64(s.Graph.BinarySize()))
	b, err := s.Graph.AppendBinary(b)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encode graph: %w", err)
	}

	// Assignment.
	table := s.Assignment.Table()
	b = le.AppendUint64(b, uint64(s.Assignment.K()))
	b = le.AppendUint32(b, uint32(len(table)))
	for _, p := range table {
		b = le.AppendUint32(b, uint32(int32(p)))
	}

	// Core state.
	b = le.AppendUint64(b, uint64(s.Core.Iteration))
	b = le.AppendUint64(b, uint64(s.Core.Quiet))
	b = le.AppendUint64(b, uint64(s.Core.LastMigration))
	b = appendBool(b, s.Core.Active != nil)
	if s.Core.Active != nil {
		b = appendVertexList(b, s.Core.Active.Frontier)
		b = le.AppendUint32(b, uint32(len(s.Core.Active.Parked)))
		for _, list := range s.Core.Active.Parked {
			b = appendVertexList(b, list)
		}
	}
	// Heat accumulator: mid-decay per-slot read heat, so a restored
	// workload-weighted run continues byte-identically.
	b = appendBool(b, s.Core.Heat != nil)
	if s.Core.Heat != nil {
		b = le.AppendUint32(b, uint32(len(s.Core.Heat)))
		for _, h := range s.Core.Heat {
			b = le.AppendUint32(b, math.Float32bits(h))
		}
	}

	// Cluster identity.
	b = appendBool(b, s.Cluster != nil)
	if s.Cluster != nil {
		b = le.AppendUint32(b, s.Cluster.ShardID)
		b = le.AppendUint32(b, s.Cluster.NumShards)
		b = le.AppendUint64(b, s.Cluster.RoundsCompleted)
	}

	return le.AppendUint32(b, crc32.ChecksumIEEE(b)), nil
}

// Read parses a snapshot previously produced by Write, verifying the
// magic, version and checksum before interpreting any content.
func Read(r io.Reader) (*Snapshot, error) {
	raw, err := io.ReadAll(io.LimitReader(r, maxFileBytes+1))
	if err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	if err := checkFileSize(int64(len(raw))); err != nil {
		return nil, err
	}
	return decode(raw)
}

// decode parses a whole snapshot file held in raw.
func decode(raw []byte) (*Snapshot, error) {
	if len(raw) < len(Magic)+8 {
		return nil, fmt.Errorf("snapshot: file too short (%d bytes)", len(raw))
	}
	if string(raw[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", raw[:len(Magic)])
	}
	body, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("snapshot: checksum mismatch (file %08x, computed %08x) — truncated or corrupt", sum, got)
	}
	d := &decoder{buf: body[len(Magic):]}
	version := d.u32()
	if version < minReadVersion || version > Version {
		return nil, fmt.Errorf("snapshot: unsupported version %d (supported: %d–%d)", version, minReadVersion, Version)
	}

	var s Snapshot
	s.Params.K = int(d.i64())
	s.Params.CapacityFactor = d.f64()
	s.Params.S = d.f64()
	s.Params.ConvergenceWindow = int(d.i64())
	s.Params.MaxIterations = int(d.i64())
	s.Params.Seed = d.i64()
	if version == 4 {
		d.u64() // the writer's shard count
	}
	s.Params.Incremental = d.bool()
	s.Params.RecordEvery = int(d.i64())
	s.Params.BalanceEdges = d.bool()
	s.Params.DisableQuotas = d.bool()
	s.Params.WorkloadWeight = d.f64()

	s.Meta.Ticks = d.u64()
	s.Meta.MutationsIngested = d.u64()
	s.Meta.MutationsApplied = d.u64()
	s.Meta.CreatedUnix = d.i64()

	glen := d.u64()
	if d.err == nil && glen > uint64(len(d.buf)) {
		d.err = fmt.Errorf("graph section claims %d bytes, %d remain", glen, len(d.buf))
	}
	section := d.take(int(glen))
	if d.err != nil {
		return nil, fmt.Errorf("snapshot: %w", d.err)
	}
	g, err := graph.DecodeGraph(section)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	s.Graph = g

	k := int(d.i64())
	slots := d.u32()
	if d.err == nil && int(slots) != g.NumSlots() {
		d.err = fmt.Errorf("assignment covers %d slots, graph has %d", slots, g.NumSlots())
	}
	table := make([]partition.ID, 0, slots)
	for i := uint32(0); i < slots && d.err == nil; i++ {
		table = append(table, partition.ID(int32(d.u32())))
	}
	if d.err != nil {
		return nil, fmt.Errorf("snapshot: %w", d.err)
	}
	asn, err := partition.FromTable(table, k)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	s.Assignment = asn

	s.Core.Iteration = int(d.i64())
	s.Core.Quiet = int(d.i64())
	s.Core.LastMigration = int(d.i64())
	if version == 4 {
		// The sequential generator, then one per shard: skipped.
		d.skipBytes()
		nShards := d.u32()
		for i := uint32(0); i < nShards && d.err == nil; i++ {
			d.skipBytes()
		}
	}
	if d.bool() {
		var st activeset.State
		st.Frontier = d.vertexList()
		nPark := d.u32()
		if d.err == nil && int(nPark) != k {
			d.err = fmt.Errorf("active-set state has %d park lists, k=%d", nPark, k)
		}
		for j := uint32(0); j < nPark && d.err == nil; j++ {
			st.Parked = append(st.Parked, d.vertexList())
		}
		s.Core.Active = &st
	}
	if d.bool() {
		nHeat := d.u32()
		if d.err == nil && uint64(nHeat)*4 > uint64(len(d.buf)) {
			d.err = fmt.Errorf("heat section claims %d entries, %d bytes remain", nHeat, len(d.buf))
		}
		if d.err == nil {
			s.Core.Heat = make([]float32, nHeat)
			for i := range s.Core.Heat {
				s.Core.Heat[i] = math.Float32frombits(d.u32())
			}
		}
	}
	if d.bool() {
		ci := ClusterIdentity{ShardID: d.u32(), NumShards: d.u32(), RoundsCompleted: d.u64()}
		if d.err == nil && (ci.NumShards < 2 || ci.ShardID >= ci.NumShards) {
			d.err = fmt.Errorf("implausible cluster identity: shard %d of %d", ci.ShardID, ci.NumShards)
		}
		s.Cluster = &ci
	}
	if d.err != nil {
		return nil, fmt.Errorf("snapshot: %w", d.err)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after core state", len(d.buf))
	}
	return &s, nil
}

// Save atomically writes the snapshot to path: the bytes land in a
// temporary file in the same directory, are fsynced, and replace path in
// one rename. A concurrent crash leaves either the old snapshot or the
// new one, never a torn file. A snapshot that cannot be encoded creates
// no file at all.
func Save(path string, s *Snapshot) error {
	buf, err := encode(s)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: write %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Load reads and validates the snapshot at path. The file is read into
// one buffer sized from its length, which is bounded before allocating.
func Load(path string) (s *Snapshot, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("snapshot: load %s: %w", path, err)
		}
	}()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if err := checkFileSize(fi.Size()); err != nil {
		return nil, err
	}
	raw := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, raw); err != nil {
		return nil, err
	}
	return decode(raw)
}

// decoder walks a byte slice with sticky-error semantics: after the
// first failure every accessor returns zero values.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.err = fmt.Errorf("invalid boolean byte %d", b[0])
		return false
	}
}

// skipBytes skips a u32-length-prefixed byte string.
func (d *decoder) skipBytes() {
	if n := d.u32(); d.err == nil && uint64(n) > uint64(len(d.buf)) {
		d.err = fmt.Errorf("byte string claims %d bytes, %d remain", n, len(d.buf))
	} else {
		d.take(int(n))
	}
}

func (d *decoder) vertexList() []graph.VertexID {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if uint64(n)*4 > uint64(len(d.buf)) {
		d.err = fmt.Errorf("vertex list claims %d entries, %d bytes remain", n, len(d.buf))
		return nil
	}
	list := make([]graph.VertexID, n)
	for i := range list {
		list[i] = graph.VertexID(int32(d.u32()))
	}
	return list
}

var le = binary.LittleEndian

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendVertexList(b []byte, list []graph.VertexID) []byte {
	b = le.AppendUint32(b, uint32(len(list)))
	for _, v := range list {
		b = le.AppendUint32(b, uint32(int32(v)))
	}
	return b
}
