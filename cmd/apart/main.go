// Command apart is the adaptive-partitioning CLI: it loads or generates a
// graph, computes an initial partitioning with any of the paper's four
// strategies (or the centralised multilevel baseline), optionally runs the
// iterative adaptive heuristic to convergence, and reports cut ratio,
// balance, convergence time and migration counts.
//
// Examples:
//
//	apart -dataset 64kcube -k 9 -initial HSH
//	apart -dataset epinion -k 9 -initial RND -s 0.3
//	apart -input graph.edges -k 16 -initial DGR -iterative=false
//	apart -dataset plc10000 -k 9 -metis
package main

import (
	"flag"
	"fmt"
	"os"

	"xdgp/internal/core"
	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/metis"
	"xdgp/internal/partition"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "apart:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("apart", flag.ContinueOnError)
	var (
		dataset   = fs.String("dataset", "", "named dataset from Table 1 (see -list)")
		input     = fs.String("input", "", "graph file to load instead of a dataset")
		format    = fs.String("format", "edges", "input format: edges (SNAP edge list) or metis (.graph)")
		directed  = fs.Bool("directed", false, "treat -input as a directed graph (edges format only)")
		list      = fs.Bool("list", false, "list available datasets and exit")
		k         = fs.Int("k", 9, "number of partitions (1–255)")
		initial   = fs.String("initial", "HSH", "initial strategy: HSH, RND, DGR or MNN")
		iterative = fs.Bool("iterative", true, "run the adaptive iterative heuristic")
		useMetis  = fs.Bool("metis", false, "also run the centralised multilevel baseline")
		s         = fs.Float64("s", 0.5, "willingness to move (0,1]")
		capFactor = fs.Float64("capacity", 1.10, "capacity factor over balanced load")
		maxIter   = fs.Int("max-iterations", 5000, "iteration bound")
		seed      = fs.Int64("seed", 1, "random seed")
		parallel  = fs.Int("parallel", 0, "shards that decide each iteration (0 = one per CPU); placements are the same for every value")
		increment = fs.Bool("incremental", false, "active-set scheduler: re-examine only vertices whose inputs changed (full sweep when off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, d := range gen.Registry() {
			note := d.Scale
			if note == "" {
				note = "full scale"
			}
			fmt.Printf("%-14s %-6s |V|=%-10d |E|=%-10d %s\n", d.Name, d.Type, d.PaperV, d.PaperE, note)
		}
		return nil
	}

	g, err := loadGraph(*dataset, *input, *format, *directed, *seed)
	if err != nil {
		return err
	}
	work := g
	if g.Directed() {
		work = g.Undirected()
	}
	fmt.Printf("graph: |V|=%d |E|=%d avg degree %.2f\n", work.NumVertices(), work.NumEdges(), work.AvgDegree())

	asn, err := partition.Initial(partition.Strategy(*initial), work, *k, *capFactor, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("initial %s: cut ratio %.4f, imbalance %.3f\n",
		*initial, partition.CutRatio(work, asn), partition.Imbalance(asn))

	if *iterative {
		cfg := core.DefaultConfig(*k, *seed)
		cfg.S = *s
		cfg.CapacityFactor = *capFactor
		cfg.MaxIterations = *maxIter
		cfg.RecordEvery = 0
		cfg.Parallelism = *parallel
		cfg.Incremental = *increment
		p, err := core.New(work, asn, cfg)
		if err != nil {
			return err
		}
		res := p.Run()
		mode := fmt.Sprintf("shards=%d", p.Parallelism())
		if *increment {
			mode += ", incremental"
		}
		fmt.Printf("iterative (%s): cut ratio %.4f, imbalance %.3f, converged at iteration %d (%d migrations)\n",
			mode, res.FinalCutRatio, partition.Imbalance(p.Assignment()), res.ConvergedAt, res.TotalMigrations)
		if !res.Converged {
			fmt.Println("warning: hit the iteration bound before convergence")
		}
	}

	if *useMetis {
		ma, err := metis.PartitionKWay(work, *k, metis.DefaultOptions(*seed))
		if err != nil {
			return err
		}
		fmt.Printf("metis baseline: cut ratio %.4f, imbalance %.3f\n",
			partition.CutRatio(work, ma), partition.Imbalance(ma))
	}
	return nil
}

func loadGraph(dataset, input, format string, directed bool, seed int64) (*graph.Graph, error) {
	switch {
	case dataset != "" && input != "":
		return nil, fmt.Errorf("use either -dataset or -input, not both")
	case dataset != "":
		d, err := gen.ByName(dataset)
		if err != nil {
			return nil, err
		}
		return d.Build(seed), nil
	case input != "":
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		switch format {
		case "edges":
			return graph.ReadEdgeList(f, directed)
		case "metis":
			return graph.ReadMetis(f)
		default:
			return nil, fmt.Errorf("unknown format %q (want edges or metis)", format)
		}
	default:
		return nil, fmt.Errorf("specify -dataset or -input (or -list)")
	}
}
