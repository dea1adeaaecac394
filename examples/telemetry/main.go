// Telemetry example: run an alltoall next to an interfering "bully" job under
// two routing modes and watch the fabric-wide telemetry — per-tier link
// utilization over time and the group-to-group traffic matrix. It makes the
// mechanism of the paper's §4.1 visible: unbiased adaptive routing spreads the
// same traffic over more global links (and over groups the job does not own),
// while the high-bias mode keeps it on the minimal paths.
//
// Run with:
//
//	go run ./examples/telemetry
package main

import (
	"fmt"
	"log"

	"dragonfly"
	"dragonfly/internal/stats"
	"dragonfly/internal/telemetry"
	"dragonfly/internal/workloads"
)

func main() {
	for _, mode := range []dragonfly.Mode{dragonfly.Adaptive, dragonfly.AdaptiveHighBias} {
		observe(mode)
		fmt.Println()
	}
}

// observe runs the scenario under one routing mode and prints the telemetry.
func observe(mode dragonfly.Mode) {
	sys, err := dragonfly.New(
		dragonfly.WithGeometry(dragonfly.SmallGeometry(4)),
		dragonfly.WithSeed(11),
		// Interfering job: an alltoall bully placed as soon as the measured
		// job is allocated.
		dragonfly.WithNoise(dragonfly.NoiseConfig{Pattern: dragonfly.NoiseBully, Nodes: 12}),
	)
	if err != nil {
		log.Fatal(err)
	}
	// Fabric-wide telemetry, attached before the first allocation starts
	// the interfering job.
	collector, err := telemetry.NewCollector(sys.Fabric(), telemetry.Config{IntervalCycles: 40_000, TopLinks: 3})
	if err != nil {
		log.Fatal(err)
	}
	collector.Start(dragonfly.DefaultHorizon)

	// Measured job: 16 nodes striped over the groups, running an alltoall.
	job, err := sys.Allocate(dragonfly.GroupStriped, 16)
	if err != nil {
		log.Fatal(err)
	}

	w := &workloads.Alltoall{MessageBytes: 16 << 10, Iterations: 2}
	res, err := job.Run(w, dragonfly.RunOptions{Routing: dragonfly.StaticRouting(mode)})
	if err != nil {
		log.Fatal(err)
	}
	collector.Stop()
	collector.Flush()

	maxUtil, _ := collector.Series("max-util")
	stall, _ := collector.Series("stall-ratio")
	fmt.Printf("=== routing %s (%s) ===\n", mode, mode.Name())
	fmt.Printf("alltoall time: %d cycles over %d telemetry intervals\n", res.Time(), len(collector.Samples()))
	fmt.Printf("max link utilization: mean %.3f, peak %.3f; hotspot intervals (>=80%%): %d\n",
		stats.Mean(maxUtil), stats.Max(maxUtil), len(collector.HotspotIntervals(0.8)))
	fmt.Printf("job-observed stall ratio (mean per interval): %.3f\n", stats.Mean(stall))
	fmt.Print(telemetry.RenderGroupHeatmap(collector.AggregateGroupMatrix()))
}
