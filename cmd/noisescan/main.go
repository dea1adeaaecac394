// Command noisescan runs a workload under configurable cross-traffic while a
// fabric-wide telemetry collector samples every router tile and NIC, and then
// prints the congestion time series, the hottest links and the group-to-group
// traffic heatmap. It is the system-operator companion to dragonsim: dragonsim
// shows what the application sees (NIC counters), noisescan shows what the
// machine sees (tile counters), the distinction §3.2 of the paper insists on.
//
// The scan runs through the trial harness (internal/harness): -routing
// accepts a comma-separated list of modes, each mode becomes one trial on its
// own private system, and the trials fan out across cores (-parallel) with an
// optional wall-clock budget (-timeout). A single mode prints the full
// telemetry detail; several modes print a side-by-side comparison table.
//
// Usage:
//
//	noisescan -workload alltoall -size 16384 -nodes 32 -routing ADAPTIVE_0 -noise bully
//	noisescan -workload halo3d -size 512 -nodes 64 -routing ADAPTIVE_3 -interval 25000
//	noisescan -workload alltoall -routing ADAPTIVE_0,ADAPTIVE_3,appaware -parallel 3
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dragonfly"
	"dragonfly/internal/harness"
	"dragonfly/internal/stats"
	"dragonfly/internal/telemetry"
	"dragonfly/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "noisescan:", err)
		os.Exit(1)
	}
}

// scanConfig carries the flag values one scan trial needs.
type scanConfig struct {
	workload     string
	size         int64
	nodes        int
	noiseKind    string
	noiseNodes   int
	iterations   int
	interval     int64
	topLinks     int
	hotThreshold float64
}

// scanResult is the payload of one scan trial.
type scanResult struct {
	Mode         string
	WorkloadName string
	Job          string
	NoiseDesc    string
	Times        []int64
	Col          *telemetry.Collector
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("noisescan", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "alltoall", "measured workload name")
		size         = fs.Int64("size", 16<<10, "workload size parameter")
		nodes        = fs.Int("nodes", 32, "measured job size (ranks)")
		geometryName = fs.String("geometry", "medium:4", "machine: a geometry ladder rung or preset (small, medium, large, daint, small:N, medium:N, aries:N)")
		routingModes = fs.String("routing", "ADAPTIVE_0", "routing mode(s) for the measured job, comma-separated (or appaware, default); several modes are compared side by side")
		noiseKind    = fs.String("noise", "uniform", "background pattern: uniform, hotspot, bully, burst, none")
		noiseNodesN  = fs.Int("noise-nodes", 16, "background job size")
		iterations   = fs.Int("iterations", 3, "measured workload repetitions")
		interval     = fs.Int64("interval", 50_000, "telemetry sampling interval (cycles)")
		topLinks     = fs.Int("top-links", 5, "hottest links listed per report")
		hotThreshold = fs.Float64("hot-threshold", 0.8, "utilization above which an interval counts as a hotspot")
		seed         = fs.Int64("seed", 1, "random seed")
		csvPath      = fs.String("csv", "", "write the per-interval telemetry table to this CSV file (per mode when comparing)")
		parallel     = fs.Int("parallel", 0, "trial worker goroutines (0 = all cores, 1 = serial)")
		timeout      = fs.Duration("timeout", 0, "abort the scan after this wall-clock duration (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var modes []string
	for _, m := range strings.Split(*routingModes, ",") {
		if m = strings.TrimSpace(m); m != "" {
			modes = append(modes, m)
		}
	}
	if len(modes) == 0 {
		return fmt.Errorf("no routing modes given")
	}
	// Fail fast on unknown modes before building any system.
	for _, m := range modes {
		if _, err := dragonfly.ParseRouting(m); err != nil {
			return err
		}
	}

	tcfg, err := dragonfly.ParseGeometry(*geometryName)
	if err != nil {
		return err
	}
	cfg := scanConfig{
		workload:     *workloadName,
		size:         *size,
		nodes:        *nodes,
		noiseKind:    *noiseKind,
		noiseNodes:   *noiseNodesN,
		iterations:   *iterations,
		interval:     *interval,
		topLinks:     *topLinks,
		hotThreshold: *hotThreshold,
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	specs := make([]harness.TrialSpec[*scanResult], len(modes))
	for i, mode := range modes {
		specs[i] = harness.TrialSpec[*scanResult]{
			ID:       "noisescan/" + mode,
			Geometry: tcfg,
			Body:     scanBody(mode, cfg),
		}
	}
	results, err := harness.Run(ctx, harness.Executor{Parallel: *parallel, Seed: *seed}, specs)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "system: %d nodes / %d routers / %d groups\n",
		tcfg.Nodes(), tcfg.Routers(), tcfg.Groups)
	if len(modes) == 1 {
		return renderDetailed(out, results[0], cfg, *csvPath)
	}
	return renderComparison(out, results, cfg, *csvPath)
}

// scanBody builds the trial body measuring one routing mode with telemetry.
// The measured job is placed first, GroupStriped, on a fresh system; that
// placement draws no randomness, so every compared mode runs on the same
// nodes and the comparison differs only by routing (plus each mode's private
// background noise).
func scanBody(mode string, cfg scanConfig) func(context.Context, *dragonfly.System) (*scanResult, error) {
	return func(ctx context.Context, sys *dragonfly.System) (*scanResult, error) {
		rc, err := dragonfly.ParseRouting(mode)
		if err != nil {
			return nil, err
		}
		job, err := sys.Allocate(dragonfly.GroupStriped, cfg.nodes)
		if err != nil {
			return nil, err
		}
		var noiseDesc string
		if cfg.noiseKind != "none" {
			pattern, err := dragonfly.ParseNoisePattern(cfg.noiseKind)
			if err != nil {
				return nil, err
			}
			if g := sys.StartNoise(dragonfly.NoiseConfig{Pattern: pattern, Nodes: cfg.noiseNodes}); g != nil {
				noiseDesc = fmt.Sprintf("%d nodes, %s pattern", g.NumNodes(), pattern)
			}
		}

		w, err := dragonfly.NewWorkload(cfg.workload, job.Size(), cfg.size)
		if err != nil {
			return nil, err
		}
		col, err := telemetry.NewCollector(sys.Fabric(), telemetry.Config{
			IntervalCycles: cfg.interval,
			TopLinks:       cfg.topLinks,
		})
		if err != nil {
			return nil, err
		}
		col.Start(dragonfly.DefaultHorizon)

		res, err := job.Run(w, dragonfly.RunOptions{
			Routing:    rc,
			Iterations: cfg.iterations,
			Context:    ctx,
		})
		if err != nil {
			return nil, err
		}
		col.Stop()
		col.Flush()
		return &scanResult{
			Mode:         mode,
			WorkloadName: w.Name(),
			Job:          job.String(),
			NoiseDesc:    noiseDesc,
			Times:        res.Times,
			Col:          col,
		}, nil
	}
}

// renderDetailed prints the full single-mode report: iteration times, the
// per-interval telemetry table, congestion summary, hottest links and the
// group-to-group heatmap.
func renderDetailed(out io.Writer, r *scanResult, cfg scanConfig, csvPath string) error {
	fmt.Fprintf(out, "measured job: %s\n", r.Job)
	if r.NoiseDesc != "" {
		fmt.Fprintf(out, "background job: %s\n", r.NoiseDesc)
	}
	for i, t := range r.Times {
		fmt.Fprintf(out, "iteration %d: %d cycles\n", i, t)
	}
	col := r.Col
	table := col.Table(fmt.Sprintf("telemetry: %s size=%d routing=%s", r.WorkloadName, cfg.size, r.Mode))
	if err := table.Render(out); err != nil {
		return err
	}
	if csvPath != "" {
		if err := table.SaveCSV(csvPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "per-interval telemetry written to %s\n", csvPath)
	}

	maxUtil, _ := col.Series("max-util")
	stall, _ := col.Series("stall-ratio")
	fmt.Fprintf(out, "\nsamples: %d, mean max-utilization: %.3f, peak: %.3f, hotspot intervals (>=%.0f%%): %d, mean stall ratio: %.3f\n",
		len(col.Samples()), stats.Mean(maxUtil), stats.Max(maxUtil),
		cfg.hotThreshold*100, len(col.HotspotIntervals(cfg.hotThreshold)), stats.Mean(stall))

	if last := lastSampleWithHotLinks(col); last != nil {
		fmt.Fprintf(out, "\nhottest links of the last active interval [%d, %d):\n", last.Start, last.End)
		for _, h := range last.Hottest {
			fmt.Fprintf(out, "  link %d (%s %d->%d): util=%.3f flits=%d\n",
				h.Link.ID, h.Link.Type, h.Link.Src, h.Link.Dst, h.Utilization, h.Flits)
		}
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, telemetry.RenderGroupHeatmap(col.AggregateGroupMatrix()))
	return nil
}

// renderComparison prints the side-by-side summary of a multi-mode scan.
func renderComparison(out io.Writer, results []*scanResult, cfg scanConfig, csvPath string) error {
	table := trace.NewTable(
		fmt.Sprintf("routing comparison: %s size=%d, %d iterations per mode", cfg.workload, cfg.size, cfg.iterations),
		"routing", "median cycles", "mean max-util", "peak max-util",
		fmt.Sprintf("hotspot intervals (>=%.0f%%)", cfg.hotThreshold*100),
		"mean stall ratio", "samples")
	for _, r := range results {
		times := make([]float64, len(r.Times))
		for i, t := range r.Times {
			times[i] = float64(t)
		}
		maxUtil, _ := r.Col.Series("max-util")
		stall, _ := r.Col.Series("stall-ratio")
		table.AddRow(r.Mode, stats.Median(times),
			stats.Mean(maxUtil), stats.Max(maxUtil),
			len(r.Col.HotspotIntervals(cfg.hotThreshold)),
			stats.Mean(stall), len(r.Col.Samples()))
		if csvPath != "" {
			path := csvPath + "." + strings.ReplaceAll(r.Mode, "/", "_")
			t := r.Col.Table(fmt.Sprintf("telemetry: %s size=%d routing=%s", r.WorkloadName, cfg.size, r.Mode))
			if err := t.SaveCSV(path); err != nil {
				return err
			}
			fmt.Fprintf(out, "per-interval telemetry for %s written to %s\n", r.Mode, path)
		}
	}
	fmt.Fprintf(out, "measured job (same allocation every mode): %s\n", results[0].Job)
	if nd := results[0].NoiseDesc; nd != "" {
		fmt.Fprintf(out, "background job: %s (freshly placed per mode)\n", nd)
	}
	return table.Render(out)
}

// lastSampleWithHotLinks returns the most recent sample that recorded hot
// links, or nil.
func lastSampleWithHotLinks(col *telemetry.Collector) *telemetry.Sample {
	samples := col.Samples()
	for i := len(samples) - 1; i >= 0; i-- {
		if len(samples[i].Hottest) > 0 {
			return &samples[i]
		}
	}
	return nil
}
