// Command apartd is the streaming partition daemon: the serving form of
// the paper's adaptive partitioner. It ingests graph mutations over
// HTTP/JSON, coalesces them into batches on a configurable tick, runs
// the incremental re-adaptation loop between ticks, and serves placement
// reads from immutable, epoch-numbered routing snapshots that never
// touch the adaptation lock — single lookups, batch lookups
// (POST /v1/placements, mutually consistent within one epoch), and a
// streaming change feed (GET /v1/watch, per-epoch diffs with a bounded
// retention ring sized by -watch-ring). Checkpoints capture the complete
// partitioner state — graph, assignment, scheduler frontier, heat — so
// a restarted daemon resumes deterministically mid-stream, at any
// -parallel.
//
// Start fresh, stream mutations, query placements:
//
//	apartd -addr :8080 -k 9 -seed 1 -checkpoint /var/lib/apartd/state.snap
//	curl -X POST localhost:8080/v1/mutations \
//	     -d '{"mutations":[{"op":"add-edge","u":0,"v":1}]}'
//	curl localhost:8080/v1/placement/0
//	curl -X POST localhost:8080/v1/placements -d '{"vertices":[0,1,2]}'
//	curl -N localhost:8080/v1/watch
//	curl localhost:8080/v1/stats
//
// Checkpoint and resume:
//
//	curl -X POST localhost:8080/v1/checkpoint
//	apartd -addr :8080 -restore /var/lib/apartd/state.snap
//
// Cluster mode runs N daemons as one logical partitioner: each shard
// listens for its peers on -cluster-addr, exchanges migration decisions
// in barrier rounds every tick, and computes byte-identical placements
// to a single process at any -parallel. Every shard ingests
// mutations and serves reads; all algorithm flags (and -shards) must
// agree across the cluster, which the RPC handshake enforces. A crashed
// shard rejoins by restoring its checkpoint and replaying the missed
// rounds from its peers' journals (docs/OPERATIONS.md, "Running a
// cluster"):
//
//	apartd -addr :8080 -cluster-addr :9300 \
//	    -peers 127.0.0.1:9300,127.0.0.1:9301,127.0.0.1:9302 \
//	    -shard-id 0 -shards 3
//
// On SIGTERM/SIGINT the daemon stops accepting requests, absorbs the
// pending mutation queue, writes a final checkpoint (when -checkpoint is
// set) and exits. docs/API.md is the complete endpoint reference;
// docs/ARCHITECTURE.md covers the ingest→coalesce→re-adapt→serve data
// flow and docs/OPERATIONS.md the runbook.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xdgp/internal/cluster"
	"xdgp/internal/server"
	"xdgp/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "apartd:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	addr              string
	binaryAddr        string
	clusterAddr       string
	peers             []string
	shard, shards     int // cluster geometry, handed to the transport
	restore           string
	drainTicks        int
	readHeaderTimeout time.Duration
	idleTimeout       time.Duration
	cfg               server.Config
}

// parseFlags builds the daemon configuration from the command line.
func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("apartd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address")
		binaryAddr  = fs.String("binary-addr", "", "binary ingest plane listen address (empty = disabled); see docs/API.md for the frame protocol")
		k           = fs.Int("k", 9, "number of partitions")
		seed        = fs.Int64("seed", 1, "random seed (with the stream, determines every placement)")
		s           = fs.Float64("s", 0.5, "willingness to move (0,1]")
		capFactor   = fs.Float64("capacity", 1.10, "capacity factor over balanced load")
		parallel    = fs.Int("parallel", 1, "shards that decide each re-adaptation iteration (0 = one per CPU); placements are the same for every value")
		incremental = fs.Bool("incremental", true, "active-set scheduler (recommended for streaming; full sweep when off)")
		tick        = fs.Duration("tick", 250*time.Millisecond, "mutation-coalescing tick period (0 = manual mode: POST /v1/tick drives every tick)")
		maxSteps    = fs.Int("max-steps", 40, "heuristic iteration budget per tick")
		window      = fs.Int("window", 30, "consecutive quiet iterations to declare convergence")
		watchRing   = fs.Int("watch-ring", 0, "epoch diffs retained for GET /v1/watch resume (0 = default 256); older consumers get a resync event")
		ckpt        = fs.String("checkpoint", "", "snapshot path for POST /v1/checkpoint, periodic and shutdown checkpoints")
		ckptEvery   = fs.Int("checkpoint-every", 0, "auto-checkpoint every n ticks (0 = off; requires -checkpoint)")
		restore     = fs.String("restore", "", "resume from this snapshot (algorithm parameters come from the snapshot)")
		drainTicks  = fs.Int("drain-ticks", 1000, "max ticks the shutdown drain runs to absorb the pending queue")
		maxPending  = fs.Int("max-pending", 0, "ingest queue cap in mutations; producers over it get HTTP 429 / binary NAK backpressure (0 = default 1048576, -1 = unbounded)")
		shards      = fs.Int("ingest-shards", 0, "independent ingest queues (0 = one per CPU, capped at 32)")
		readHdrTO   = fs.Duration("read-header-timeout", 10*time.Second, "HTTP request-header read timeout (slowloris guard)")
		idleTO      = fs.Duration("idle-timeout", 2*time.Minute, "HTTP keep-alive idle connection timeout")
		watchTO     = fs.Duration("watch-write-timeout", 0, "per-event write deadline on GET /v1/watch streams; stalled consumers past it are dropped (0 = default 30s, -1ns = none)")
		binIdleTO   = fs.Duration("binary-idle-timeout", 0, "disconnect a silent binary-plane connection after this long (0 = default 5m, -1ns = none)")
		workloadW   = fs.Float64("workload-weight", 0, "workload term strength: weight each neighbour's migration vote by its decayed read heat (0 = paper-exact topology-only objective)")
		heatHalf    = fs.Duration("heat-halflife", 0, "read-heat half-life, applied per tick (0 = default 30s)")
		heatSample  = fs.Int("heat-sample", 0, "sample one in this many reads per heat shard, rounded down to a power of two (0 = default 64)")
		heatRecord  = fs.Bool("heat-record", false, "sample read heat even with -workload-weight 0, for apartd_heat_* observability")
		clusterAddr = fs.String("cluster-addr", "", "cluster RPC listen address; turns on cluster mode (requires -peers, -shard-id, -shards; see docs/ARCHITECTURE.md)")
		peers       = fs.String("peers", "", "comma-separated cluster RPC addresses of ALL shards, indexed by shard id (entry -shard-id is this process)")
		shardID     = fs.Int("shard-id", 0, "this replica's shard index in [0, -shards)")
		shardN      = fs.Int("shards", 0, "fixed cluster size (≥ 2); every shard must agree on it, the seed, K and the heuristic knobs")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	cfg := server.DefaultConfig(*k, *seed)
	cfg.S = *s
	cfg.CapacityFactor = *capFactor
	cfg.Parallelism = *parallel
	cfg.Incremental = *incremental
	cfg.TickEvery = *tick
	cfg.MaxStepsPerTick = *maxSteps
	cfg.ConvergenceWindow = *window
	cfg.CheckpointPath = *ckpt
	cfg.CheckpointEvery = *ckptEvery
	cfg.WatchRing = *watchRing
	cfg.MaxPending = *maxPending
	cfg.IngestShards = *shards
	cfg.WatchWriteTimeout = *watchTO
	cfg.BinaryIdleTimeout = *binIdleTO
	cfg.WorkloadWeight = *workloadW
	cfg.HeatHalfLife = *heatHalf
	cfg.HeatSample = *heatSample
	cfg.HeatRecord = *heatRecord
	var peerList []string
	if *clusterAddr != "" {
		if *peers == "" {
			return nil, fmt.Errorf("-cluster-addr requires -peers")
		}
		peerList = strings.Split(*peers, ",")
		for i := range peerList {
			peerList[i] = strings.TrimSpace(peerList[i])
		}
		if len(peerList) != *shardN {
			return nil, fmt.Errorf("-peers lists %d addresses, -shards says %d", len(peerList), *shardN)
		}
	} else if *shardN != 0 || *shardID != 0 || *peers != "" {
		return nil, fmt.Errorf("-peers/-shard-id/-shards require -cluster-addr")
	}
	return &options{
		addr:              *addr,
		binaryAddr:        *binaryAddr,
		clusterAddr:       *clusterAddr,
		peers:             peerList,
		shard:             *shardID,
		shards:            *shardN,
		restore:           *restore,
		drainTicks:        *drainTicks,
		readHeaderTimeout: *readHdrTO,
		idleTimeout:       *idleTO,
		cfg:               cfg,
	}, nil
}

// buildServer constructs the daemon, fresh or from a snapshot. The
// cluster path pre-loads the snapshot (the mesh handshake needs its
// watermark before the server exists) and passes it in; otherwise it is
// loaded here.
func buildServer(opts *options, snap *snapshot.Snapshot) (*server.Server, error) {
	if snap == nil && opts.restore != "" {
		var err error
		if snap, err = snapshot.Load(opts.restore); err != nil {
			return nil, err
		}
	}
	if snap == nil {
		return server.New(opts.cfg)
	}
	srv, err := server.Restore(opts.cfg, snap)
	if err != nil {
		return nil, err
	}
	log.Printf("restored %s: %d vertices, %d edges, tick %d, k=%d seed=%d",
		opts.restore, snap.Graph.NumVertices(), snap.Graph.NumEdges(),
		snap.Meta.Ticks, snap.Params.K, snap.Params.Seed)
	return srv, nil
}

// clusterConfigHash fingerprints every parameter the deterministic
// replicated state machine depends on. Peers exchange it in the
// handshake and refuse to mesh on a mismatch — a shard with a different
// seed or step budget would silently diverge instead of failing fast.
func clusterConfigHash(cfg server.Config, shards int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "k=%d seed=%d s=%g cap=%g incremental=%v window=%d steps=%d shards=%d",
		cfg.K, cfg.Seed, cfg.S, cfg.CapacityFactor, cfg.Incremental,
		cfg.ConvergenceWindow, cfg.MaxStepsPerTick, shards)
	return h.Sum64()
}

// setupCluster listens on the cluster RPC address and meshes with the
// peers, returning the connected exchange. With a snapshot present the
// algorithm parameters it pins (and the replay watermark it carries)
// shape the handshake, matching what server.Restore will enforce.
func setupCluster(opts *options, snap *snapshot.Snapshot) (*cluster.TCP, error) {
	hashCfg := opts.cfg
	watermark := uint64(0)
	if snap != nil {
		if snap.Cluster == nil {
			return nil, fmt.Errorf("snapshot %s carries no cluster identity; cluster mode resumes only from cluster-mode checkpoints", opts.restore)
		}
		watermark = snap.Cluster.RoundsCompleted
		hashCfg.K = snap.Params.K
		hashCfg.Seed = snap.Params.Seed
		hashCfg.S = snap.Params.S
		hashCfg.CapacityFactor = snap.Params.CapacityFactor
		hashCfg.Incremental = snap.Params.Incremental
		hashCfg.ConvergenceWindow = snap.Params.ConvergenceWindow
	}
	ln, err := net.Listen("tcp", opts.clusterAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster listener: %w", err)
	}
	log.Printf("cluster shard %d/%d meshing on %s (peers %v, watermark %d)",
		opts.shard, opts.shards, ln.Addr(), opts.peers, watermark)
	ex, err := cluster.NewTCP(cluster.TCPConfig{
		Shard:      opts.shard,
		Shards:     opts.shards,
		Listener:   ln,
		Peers:      opts.peers,
		ConfigHash: clusterConfigHash(hashCfg, opts.shards),
		Watermark:  watermark,
		Logf:       log.Printf,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster mesh: %w", err)
	}
	return ex, nil
}

func run(args []string) error {
	opts, err := parseFlags(args)
	if err != nil {
		return err
	}
	var snap *snapshot.Snapshot
	if opts.clusterAddr != "" {
		if opts.restore != "" {
			if snap, err = snapshot.Load(opts.restore); err != nil {
				return err
			}
		}
		ex, err := setupCluster(opts, snap)
		if err != nil {
			return err
		}
		// The server never closes the exchange; this close runs after the
		// deferred srv.Stop, once the drain's final rounds are done.
		defer ex.Close() //nolint:errcheck // teardown
		opts.cfg.Exchange = ex
	}
	srv, err := buildServer(opts, snap)
	if err != nil {
		return err
	}
	cfg := srv.Config()
	srv.Start()
	defer srv.Stop()

	// WriteTimeout stays zero on purpose: GET /v1/watch responses are
	// unbounded streams, and each event write already runs under the
	// per-event deadline (-watch-write-timeout). The header and idle
	// timeouts close the slowloris and abandoned-keep-alive holes.
	httpSrv := &http.Server{
		Addr:              opts.addr,
		Handler:           srv,
		ReadHeaderTimeout: opts.readHeaderTimeout,
		IdleTimeout:       opts.idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	var binLn net.Listener
	if opts.binaryAddr != "" {
		var err error
		binLn, err = net.Listen("tcp", opts.binaryAddr)
		if err != nil {
			return fmt.Errorf("binary listener: %w", err)
		}
		go func() {
			if err := srv.ServeBinary(binLn); err != nil {
				errCh <- fmt.Errorf("binary plane: %w", err)
			}
		}()
		log.Printf("binary ingest plane listening on %s", binLn.Addr())
	}
	log.Printf("apartd listening on %s (k=%d seed=%d incremental=%v tick=%s checkpoint=%q)",
		opts.addr, cfg.K, cfg.Seed, cfg.Incremental, cfg.TickEvery, cfg.CheckpointPath)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case got := <-sig:
		log.Printf("received %s: draining", got)
		if binLn != nil {
			binLn.Close() //nolint:errcheck // stop new producers; live conns close in srv.Stop via Drain
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx) //nolint:errcheck // in-flight requests get the grace window
		ticks, err := srv.Drain(opts.drainTicks)
		st := srv.Stats()
		log.Printf("drained in %d ticks: %d vertices, %d edges, converged=%v, %d checkpoints",
			ticks, st.Vertices, st.Edges, st.Converged, st.Checkpoints)
		if err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		return nil
	}
}
