// Command msgtrace records and replays fabric-wide communication traces.
//
// In record mode it runs a workload on the simulated Dragonfly, captures every
// message transfer through the fabric's delivery observer and writes the trace
// as JSON Lines. In replay mode it loads such a trace and re-injects it onto a
// fresh system — possibly under a different routing mode or with a different
// time scale — and reports the delivered traffic and the NIC-level latency and
// stall statistics. Trace capture plus replay is the usual way to re-examine a
// communication pattern under routing changes without re-running the
// application.
//
// Usage:
//
//	msgtrace -mode record -workload alltoall -size 16384 -nodes 16 -trace trace.jsonl
//	msgtrace -mode replay -trace trace.jsonl -routing ADAPTIVE_3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dragonfly"
	"dragonfly/internal/msglog"
	"dragonfly/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "msgtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("msgtrace", flag.ContinueOnError)
	var (
		mode         = fs.String("mode", "record", "record or replay")
		tracePath    = fs.String("trace", "trace.jsonl", "trace file (written in record mode, read in replay mode)")
		workloadName = fs.String("workload", "alltoall", "workload to record")
		size         = fs.Int64("size", 16<<10, "workload size parameter")
		nodes        = fs.Int("nodes", 16, "job size (ranks) in record mode")
		geometryName = fs.String("geometry", "medium:4", "machine: a geometry ladder rung or preset (small, medium, large, daint, small:N, medium:N, aries:N)")
		routingMode  = fs.String("routing", "ADAPTIVE_0", "routing mode (record: for the workload; replay: for the replayed traffic)")
		timeScale    = fs.Float64("time-scale", 1.0, "replay pacing: >1 stretches the original gaps, <1 compresses them")
		seed         = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// msglog.Replay reads a non-positive scale as 1.0, which would replay at
	// the original pacing while the report prints the scale given.
	if !(*timeScale > 0) {
		return fmt.Errorf("-time-scale %v: must be positive", *timeScale)
	}
	mode2, err := dragonfly.ParseMode(*routingMode)
	if err != nil {
		return err
	}
	geometry, err := dragonfly.ParseGeometry(*geometryName)
	if err != nil {
		return err
	}

	sys, err := dragonfly.New(
		dragonfly.WithGeometry(geometry),
		dragonfly.WithSeed(*seed),
	)
	if err != nil {
		return err
	}

	switch *mode {
	case "record":
		return record(out, sys, *workloadName, *size, *nodes, mode2, *tracePath)
	case "replay":
		return replay(out, sys, *tracePath, mode2, *timeScale)
	default:
		return fmt.Errorf("unknown mode %q (want record or replay)", *mode)
	}
}

// record runs the workload with a log attached and saves the trace.
func record(out io.Writer, sys *dragonfly.System, workloadName string, size int64,
	nodes int, mode dragonfly.Mode, tracePath string) error {

	job, err := sys.Allocate(dragonfly.GroupStriped, nodes)
	if err != nil {
		return err
	}
	w, err := dragonfly.NewWorkload(workloadName, job.Size(), size)
	if err != nil {
		return err
	}
	log := msglog.NewLog()
	log.Attach(sys.Fabric())
	res, err := job.Run(w, dragonfly.RunOptions{Routing: dragonfly.StaticRouting(mode)})
	if err != nil {
		return err
	}
	if err := log.SaveJSONL(tracePath); err != nil {
		return err
	}
	fmt.Fprintf(out, "recorded %s: %d messages, %d bytes, %d cycles under %s\n",
		w.Name(), log.Len(), log.TotalBytes(), res.Time(), mode)
	fmt.Fprintf(out, "trace written to %s\n", tracePath)
	bounds, counts := log.SizeHistogram(64)
	fmt.Fprintln(out, "message-size histogram:")
	for i, b := range bounds {
		if counts[i] > 0 {
			fmt.Fprintf(out, "  <= %8d B: %d\n", b, counts[i])
		}
	}
	return nil
}

// replay loads the trace and re-injects it under the given routing mode.
func replay(out io.Writer, sys *dragonfly.System, tracePath string, mode dragonfly.Mode, timeScale float64) error {
	records, err := msglog.LoadJSONL(tracePath)
	if err != nil {
		return err
	}
	fab := sys.Fabric()
	replayLog := msglog.NewLog()
	replayLog.Attach(fab)
	scheduled, err := msglog.Replay(fab, records, msglog.ReplayOptions{Mode: mode, TimeScale: timeScale})
	if err != nil {
		return err
	}
	start := sys.Now()
	if err := sys.Engine().Run(); err != nil {
		return err
	}
	elapsed := sys.Now() - start

	total := sys.MachineCounters()
	lats := replayLog.Latencies()
	fmt.Fprintf(out, "replayed %d of %d messages under %s (time scale %.2f): %d cycles\n",
		replayLog.Len(), scheduled, mode, timeScale, elapsed)
	fmt.Fprintf(out, "delivered bytes: %d, stall ratio s=%.3f, avg packet latency L=%.1f cycles, non-minimal packets %.1f%%\n",
		replayLog.TotalBytes(), total.StallRatio(), total.AvgPacketLatency(), total.NonMinimalFraction()*100)
	if len(lats) > 0 {
		fmt.Fprintf(out, "per-message latency: median %.1f, p95 %.1f cycles\n",
			stats.Median(lats), stats.Percentile(lats, 95))
	}
	return nil
}
