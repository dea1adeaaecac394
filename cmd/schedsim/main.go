// Command schedsim runs a synthetic batch workload through the scheduler
// substrate on a simulated Dragonfly machine and reports per-job placement,
// waiting times and machine utilization for a chosen allocation policy. It is
// used to explore the allocation-based interference mitigation the paper's
// related work discusses (contiguous vs. random vs. hybrid placement) and to
// generate the multi-job backdrop of the scheduler-interference experiment.
// Every job's traffic is a synthetic generator; real applications sharing the
// machine are the cotenant experiment's (System.RunConcurrent).
//
// Usage:
//
//	schedsim -jobs 24 -placement hybrid -backfill
//	schedsim -placement contiguous -geometry medium:6 -max-nodes 32
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dragonfly"
	"dragonfly/internal/sched"
	"dragonfly/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "schedsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("schedsim", flag.ContinueOnError)
	var (
		jobs        = fs.Int("jobs", 16, "number of jobs in the synthetic mix")
		placement   = fs.String("placement", "contiguous", "placement policy: contiguous, random, group-striped, hybrid")
		backfill    = fs.Bool("backfill", false, "enable conservative backfilling")
		geometryArg = fs.String("geometry", "medium:4", "machine: a geometry ladder rung or preset (small, medium, large, daint, small:N, medium:N, aries:N)")
		minNodes    = fs.Int("min-nodes", 2, "smallest job size")
		maxNodes    = fs.Int("max-nodes", 16, "largest job size")
		commShare   = fs.Float64("comm-share", 0.35, "fraction of communication-intensive jobs")
		interarrive = fs.Int64("interarrival", 200_000, "mean job inter-arrival time (cycles)")
		seed        = fs.Int64("seed", 1, "random seed")
		showJobs    = fs.Bool("per-job", true, "print the per-job table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	policy, err := sched.ParseAllocationPolicy(*placement)
	if err != nil {
		return err
	}
	geometry, err := dragonfly.ParseGeometry(*geometryArg)
	if err != nil {
		return err
	}
	sys, err := dragonfly.New(dragonfly.WithGeometry(geometry), dragonfly.WithSeed(*seed))
	if err != nil {
		return err
	}
	t := sys.Topology()
	fab := sys.Fabric()

	mix := sched.DefaultMixConfig()
	mix.Jobs = *jobs
	mix.MinNodes = *minNodes
	mix.MaxNodes = *maxNodes
	mix.CommIntensiveFraction = *commShare
	mix.MeanInterarrivalCycles = *interarrive
	mix.Seed = *seed
	specs, err := sched.GenerateMix(mix, t.NumNodes())
	if err != nil {
		return err
	}

	s := sched.New(fab, sched.Config{Placement: policy, Backfill: *backfill, Seed: *seed})
	for _, spec := range specs {
		if _, err := s.Submit(spec); err != nil {
			return err
		}
	}
	s.Start()
	if err := sys.Engine().Run(); err != nil {
		return err
	}

	fmt.Fprintf(out, "machine: %d nodes / %d routers / %d groups; placement=%s backfill=%v\n",
		t.NumNodes(), t.NumRouters(), t.Config().Groups, policy, *backfill)

	if *showJobs {
		table := trace.NewTable("per-job schedule",
			"job", "nodes", "comm-intensive", "wait (cycles)", "run (cycles)",
			"routers", "groups", "messages")
		for _, rec := range s.SortedByStart() {
			routers, groups := s.Spans(rec)
			table.AddRow(rec.Spec.Name, rec.Spec.Nodes, rec.Spec.CommIntensive,
				rec.WaitCycles(), rec.FinishedAt-rec.StartedAt, routers, groups, rec.MessagesSent)
		}
		if err := table.Render(out); err != nil {
			return err
		}
	}

	st := s.Stats()
	fmt.Fprintf(out, "\njobs: %d submitted, %d started, %d finished\n",
		st.Submitted, st.Started, st.Finished)
	fmt.Fprintf(out, "waiting: mean %.0f cycles, max %d cycles\n", st.MeanWaitCycles, st.MaxWaitCycles)
	fmt.Fprintf(out, "fragmentation: %.2f groups spanned per job on average\n", st.MeanGroupsSpanned)
	fmt.Fprintf(out, "machine utilization: %.1f%%, makespan %d cycles\n", st.Utilization*100, st.MakespanCycles)
	fmt.Fprintf(out, "fabric: %d packets injected by batch jobs\n", fab.PacketsInjected())
	return nil
}
