// Command experiments regenerates the tables and figures of the paper's
// evaluation. Each experiment id corresponds to one table or figure; see
// EXPERIMENTS.md for the mapping and recorded qualitative shapes.
//
// Every experiment declares its simulated runs through the trial harness
// (internal/harness), which fans independent trials out across CPU cores;
// -parallel controls the worker count and the output is byte-identical at
// every setting for a fixed -seed.
//
// Usage:
//
//	experiments -exp fig8                 # one experiment, laptop scale
//	experiments -exp all -iterations 50   # everything, more samples
//	experiments -exp fig8 -nodes 256 -full-aries -size-scale 4
//	experiments -exp fig10 -csv out/      # also write CSV files
//	experiments -exp all -parallel 1      # force serial execution
//	experiments -exp all -timeout 10m -progress
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dragonfly/internal/experiments"
	"dragonfly/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run parses flags and executes the requested experiments.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "", "experiment id ("+strings.Join(experiments.Names(), ", ")+" or 'all')")
		list       = fs.Bool("list", false, "list available experiments and exit")
		seed       = fs.Int64("seed", 1, "random seed")
		iterations = fs.Int("iterations", 0, "samples per configuration (0 = default)")
		nodes      = fs.Int("nodes", 0, "measured job size for fig8/fig9/fig10 (0 = default)")
		noiseNodes = fs.Int("noise-nodes", 0, "background job size (0 = default)")
		noiseGap   = fs.Int64("noise-interval", 0, "background inter-message gap in cycles (0 = default)")
		sizeScale  = fs.Float64("size-scale", 1.0, "multiplier applied to every message size")
		fullAries  = fs.Bool("full-aries", false, "use full-size Aries groups (96 routers per group)")
		quick      = fs.Bool("quick", false, "shrink sizes and iteration counts (smoke test)")
		csvDir     = fs.String("csv", "", "directory to also write one CSV file per table")
		parallel   = fs.Int("parallel", 0, "trial worker goroutines (0 = all cores, 1 = serial; same output either way)")
		timeout    = fs.Duration("timeout", 0, "abort the run after this wall-clock duration (0 = no limit)")
		progress   = fs.Bool("progress", false, "print per-trial progress to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, name := range experiments.Names() {
			fmt.Fprintln(out, name)
		}
		return nil
	}
	if *exp == "" {
		fs.Usage()
		return fmt.Errorf("missing -exp (use -list to see available experiments)")
	}

	opts := experiments.DefaultOptions()
	opts.Seed = *seed
	if *iterations > 0 {
		opts.Iterations = *iterations
	}
	if *nodes > 0 {
		opts.Nodes = *nodes
	}
	if *noiseNodes > 0 {
		opts.NoiseNodes = *noiseNodes
	}
	if *noiseGap > 0 {
		opts.NoiseIntervalCycles = *noiseGap
	}
	opts.SizeScale = *sizeScale
	opts.FullAries = *fullAries
	opts.Quick = *quick
	opts.Parallel = *parallel
	if *progress {
		opts.Progress = func(p harness.Progress) {
			status := "ok"
			if p.Err != nil {
				status = "FAILED: " + p.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s (%s) %s\n",
				p.Completed, p.Total, p.ID, p.Elapsed.Round(time.Millisecond), status)
		}
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts = opts.WithContext(ctx)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.Names()
	}
	for _, id := range ids {
		tables, err := experiments.Run(id, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		for i, t := range tables {
			if err := t.Render(out); err != nil {
				return err
			}
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					return err
				}
				path := filepath.Join(*csvDir, fmt.Sprintf("%s_%d.csv", id, i))
				if err := t.SaveCSV(path); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
