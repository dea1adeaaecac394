// Command dragonsim runs a single workload on a simulated Dragonfly system and
// prints the execution time, the NIC counters and (for the application-aware
// configuration) the selector statistics. It is the quickest way to poke at
// the simulator from the command line, and the smallest complete consumer of
// the public dragonfly facade.
//
// Usage:
//
//	dragonsim -workload alltoall -size 16384 -nodes 32 -routing appaware
//	dragonsim -workload halo3d -size 512 -nodes 64 -routing ADAPTIVE_3 -noise
//	dragonsim -list-workloads
package main

import (
	"flag"
	"fmt"
	"os"

	"dragonfly"
	"dragonfly/internal/counterfactual"
	droute "dragonfly/internal/routing"
	"dragonfly/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dragonsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dragonsim", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "pingpong", "workload name (-list-workloads to enumerate)")
		listW        = fs.Bool("list-workloads", false, "list available workloads and exit")
		size         = fs.Int64("size", 16<<10, "workload size parameter (bytes, elements or domain edge)")
		nodes        = fs.Int("nodes", 16, "number of ranks (one per node)")
		groups       = fs.Int("groups", 4, "number of Dragonfly groups")
		fullAries    = fs.Bool("full-aries", false, "use full-size Aries groups")
		geometryName = fs.String("geometry", "", "geometry ladder rung or preset (small, medium, large, daint, small:N, medium:N, aries:N); overrides -groups/-full-aries")
		routingMode  = fs.String("routing", "default", "routing: default, ADAPTIVE_0..3, MIN_HASH, NMIN_HASH, IN_ORDER, or appaware")
		allocPolicy  = fs.String("alloc", "group-striped", "allocation policy: contiguous, random, group-striped")
		iterations   = fs.Int("iterations", 3, "workload repetitions")
		seed         = fs.Int64("seed", 1, "random seed")
		shardsFlag   = fs.String("shards", "", "intra-run engine shards ('auto', or a count; empty = serial; same output either way)")
		traceFlag    = fs.String("decision-trace", "", "record adaptive routing decisions ('on', a top-k count, or 'k=N'; empty = off) and print a counterfactual scoring table")
		withNoise    = fs.Bool("noise", false, "add a background interfering job")
		noiseNodesN  = fs.Int("noise-nodes", 16, "background job size when -noise is set")
		report       = fs.Int("report", 0, "print a link-utilization report listing the N hottest links")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listW {
		for _, name := range dragonfly.WorkloadNames() {
			fmt.Println(name)
		}
		return nil
	}

	// Fail fast on bad names before building any system.
	routing, err := dragonfly.ParseRouting(*routingMode)
	if err != nil {
		return err
	}
	policy, err := dragonfly.ParsePolicy(*allocPolicy)
	if err != nil {
		return err
	}

	geometry := dragonfly.MediumGeometry(*groups)
	if *fullAries {
		geometry = dragonfly.AriesGeometry(*groups)
	}
	if *geometryName != "" {
		geometry, err = dragonfly.ParseGeometry(*geometryName)
		if err != nil {
			return err
		}
	}
	sysOpts := []dragonfly.Option{
		dragonfly.WithGeometry(geometry),
		dragonfly.WithSeed(*seed),
	}
	if *shardsFlag != "" {
		n, err := dragonfly.ParseShards(*shardsFlag)
		if err != nil {
			return err
		}
		sysOpts = append(sysOpts, dragonfly.WithShards(n))
	}
	traceK, err := dragonfly.ParseDecisionTrace(*traceFlag)
	if err != nil {
		return err
	}
	if traceK > 0 {
		sysOpts = append(sysOpts, dragonfly.WithDecisionTrace(traceK))
	}
	sys, err := dragonfly.New(sysOpts...)
	if err != nil {
		return err
	}

	job, err := sys.Allocate(policy, *nodes)
	if err != nil {
		return err
	}
	t := sys.Topology()
	fmt.Printf("system: %d nodes, %d routers, %d groups, %d engine shards; job: %s\n",
		t.NumNodes(), t.NumRouters(), t.Config().Groups, sys.Shards(), job)

	// Optional background noise. StartNoise silently caps the job to the free
	// nodes; the user asked for a specific interference scenario, so reject
	// requests the machine cannot honor instead.
	if *withNoise {
		if free := sys.FreeNodes(); *noiseNodesN > free {
			return fmt.Errorf("allocating noise job: requested %d nodes but only %d are free", *noiseNodesN, free)
		}
		g := sys.StartNoise(dragonfly.NoiseConfig{
			Pattern: dragonfly.NoiseUniform,
			Nodes:   *noiseNodesN,
		})
		if g == nil {
			return fmt.Errorf("no room for a %d-node background job", *noiseNodesN)
		}
		fmt.Printf("background job: %d nodes, %s pattern\n", g.NumNodes(), dragonfly.NoiseUniform)
	}

	w, err := dragonfly.NewWorkload(*workloadName, job.Size(), *size)
	if err != nil {
		return err
	}
	res, err := job.Run(w, dragonfly.RunOptions{Routing: routing, Iterations: *iterations})
	if err != nil {
		return err
	}

	results := trace.NewTable(fmt.Sprintf("%s size=%d routing=%s", w.Name(), *size, *routingMode),
		"iteration", "time (cycles)", "job packets", "job flits", "stall ratio", "avg latency", "non-minimal %")
	for i, delta := range res.Deltas {
		results.AddRow(i, res.Times[i], delta.RequestPackets, delta.RequestFlits,
			delta.StallRatio(), delta.AvgPacketLatency(), delta.NonMinimalFraction()*100)
	}
	if err := results.Render(os.Stdout); err != nil {
		return err
	}

	if res.HasSelectorStats {
		st := res.SelectorStats
		fmt.Printf("application-aware selector: %d messages, %.1f%% of bytes sent with Default routing, %d evaluations, %d mode switches\n",
			st.Messages, st.DefaultTrafficFraction()*100, st.Evaluations, st.Switches)
	}
	if traceK > 0 {
		if err := printCounterfactual(sys, traceK); err != nil {
			return err
		}
	}
	if *report > 0 {
		fmt.Print(sys.Fabric().Report(*report))
	}
	return nil
}

// printCounterfactual replays the recorded adaptive decisions under each bias
// mode and prints how much raw congestion cost the live policy avoided.
func printCounterfactual(sys *dragonfly.System, k int) error {
	tr := sys.DecisionTrace()
	modes := []droute.Mode{droute.Adaptive, droute.IncreasinglyMinimalBias,
		droute.AdaptiveLowBias, droute.AdaptiveHighBias}
	outcomes, err := counterfactual.Score(tr, droute.DefaultParams(), modes)
	if err != nil {
		return err
	}
	tab := trace.NewTable(
		fmt.Sprintf("counterfactual decision scoring: top-%d candidates, %d decisions kept, %d dropped",
			k, tr.Len(), tr.Dropped()),
		"scored mode", "decisions", "switched %", "cf minimal %", "avoided/decision", "avoided total")
	for _, o := range outcomes {
		tab.AddRow(o.Mode.Name(), o.Decisions, o.SwitchedFraction()*100,
			o.MinimalFraction()*100, o.MeanAvoided(), o.AvoidedCycles())
	}
	return tab.Render(os.Stdout)
}
