// Command visualize reproduces the paper's Video 1: it runs the adaptive
// heuristic on a 3-d mesh from hash partitioning and emits one PPM frame
// of a 2-d slice every few iterations, so the partitions can be watched
// consolidating ("the initial hash partitioning across 9 partitions ... is
// improved by increasing the number of neighbours placed together").
//
// Example:
//
//	visualize -side 40 -k 9 -frames 30 -out /tmp/frames
//	# then e.g.: ffmpeg -i /tmp/frames/frame_%03d.ppm video.mp4
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"xdgp/internal/core"
	"xdgp/internal/gen"
	"xdgp/internal/partition"
	"xdgp/internal/viz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "visualize:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("visualize", flag.ContinueOnError)
	var (
		side   = fs.Int("side", 40, "mesh side length (side³ vertices)")
		k      = fs.Int("k", 9, "number of partitions (1–255)")
		frames = fs.Int("frames", 30, "number of frames to emit")
		every  = fs.Int("every", 2, "iterations between frames")
		scale  = fs.Int("scale", 8, "pixels per vertex")
		outDir = fs.String("out", "frames", "output directory for PPM frames")
		seed   = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	g := gen.Cube3D(*side)
	asn, err := partition.Initial(partition.HSH, g, *k, 0, *seed)
	if err != nil {
		return err
	}
	p, err := core.New(g, asn, core.DefaultConfig(*k, *seed))
	if err != nil {
		return err
	}
	z := *side / 2
	for f := 0; f < *frames; f++ {
		path := filepath.Join(*outDir, fmt.Sprintf("frame_%03d.ppm", f))
		if err := writeFrame(path, p.Assignment(), *side, z, *scale); err != nil {
			return err
		}
		fmt.Printf("frame %3d: iteration %4d, cut ratio %.3f, slice fragmentation %.3f\n",
			f, p.Iteration(), p.CutRatio(), viz.Fragmentation(p.Assignment(), *side, *side, z))
		for i := 0; i < *every && !p.Converged(); i++ {
			p.Step()
		}
	}
	fmt.Printf("wrote %d frames to %s\n", *frames, *outDir)
	return nil
}

func writeFrame(path string, a *partition.Assignment, side, z, scale int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return viz.SlicePPM(f, a, side, side, z, scale)
}
