// Command schedsim runs a synthetic batch workload through the scheduler
// substrate on a simulated Dragonfly machine and reports per-job placement,
// waiting times and machine utilization for a chosen allocation policy. It is
// used to explore the allocation-based interference mitigation the paper's
// related work discusses (contiguous vs. random vs. hybrid placement) and to
// generate the multi-job backdrop of the scheduler-interference experiment.
//
// With -apps > 0 a share of the mix runs as *real* workload-driven
// applications (alltoall, halo3d, allreduce ranks co-scheduled on the shared
// fabric) instead of synthetic generators, so the interference the measured
// mix experiences comes from actual application traffic. An app job whose
// -app-workloads name is not a registered workload is an error; a rank error
// an application hits is printed as a warning after the report.
//
// With -arrivals, -clients or -horizon the tool switches from draining a
// fixed mix to an *open* arrival stream: tenant clients with SLO classes
// (latency, batch, best-effort) submit jobs from Poisson/Gamma/Weibull
// processes until the event budget (-jobs) or the admission horizon
// (-horizon) is reached, and the report becomes per-class slowdown
// distributions, SLO violation rates and the Jain fairness index. A flag the
// selected mode does not read (a batch-mix flag in open-stream mode,
// -slo-classes in batch mode, -clients beside -arrivals, -jobs beside
// -horizon) is an error.
//
// Usage:
//
//	schedsim -jobs 24 -placement hybrid -backfill
//	schedsim -placement contiguous -geometry medium:6 -max-nodes 32
//	schedsim -jobs 16 -apps 0.5 -app-workloads alltoall,halo3d
//	schedsim -clients 6 -jobs 5000 -placement random
//	schedsim -arrivals "latency:poisson:150000:nodes=2-8;batch:gamma:600000:shape=2" -horizon 50000000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dragonfly"
	"dragonfly/internal/arrival"
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
		appShare    = fs.Float64("apps", 0, "fraction of jobs that run real workload-driven applications")
		appNames    = fs.String("app-workloads", "alltoall,halo3d,allreduce", "comma-separated workloads app jobs cycle through")
		appIters    = fs.Int("app-iterations", 1, "workload repetitions per app job")
		arrivals    = fs.String("arrivals", "", "open-arrival spec (class:dist:mean[:key=val]*; ...); enables open-stream mode")
		clients     = fs.Int("clients", 0, "number of default open-arrival clients; enables open-stream mode")
		horizon     = fs.Int64("horizon", 0, "open-stream admission horizon in cycles (0: use -jobs as the event budget)")
		sloClasses  = fs.String("slo-classes", "latency,batch,besteffort", "SLO classes the default clients cycle through")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	open := *arrivals != "" || *clients > 0 || *horizon > 0
	// A set flag the selected mode does not read is an error, not a silent
	// no-op.
	unread := map[string]string{"slo-classes": "in batch mode"}
	if open {
		unread = map[string]string{}
		for _, name := range []string{"backfill", "apps", "app-workloads", "app-iterations",
			"min-nodes", "max-nodes", "comm-share", "per-job"} {
			unread[name] = "in open-stream mode"
		}
		if *arrivals != "" {
			for _, name := range []string{"clients", "slo-classes", "interarrival"} {
				unread[name] = "with -arrivals"
			}
		}
		if *horizon > 0 {
			unread["jobs"] = "with -horizon"
		}
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if why, ok := unread[f.Name]; ok && err == nil {
			err = fmt.Errorf("-%s has no effect %s", f.Name, why)
		}
	})
	if err != nil {
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

	if open {
		return runOpen(out, sys, policy, *arrivals, *clients, *sloClasses, *horizon, *jobs, *interarrive, *seed)
	}

	mix := sched.DefaultMixConfig()
	mix.Jobs = *jobs
	mix.MinNodes = *minNodes
	mix.MaxNodes = *maxNodes
	mix.CommIntensiveFraction = *commShare
	mix.MeanInterarrivalCycles = *interarrive
	mix.Seed = *seed
	mix.AppFraction = *appShare
	for _, name := range strings.Split(*appNames, ",") {
		if name = strings.TrimSpace(name); name != "" {
			mix.AppWorkloads = append(mix.AppWorkloads, name)
		}
	}
	mix.AppIterations = *appIters
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
	if err := s.Drive(nil); err != nil {
		return err
	}

	fmt.Fprintf(out, "machine: %d nodes / %d routers / %d groups; placement=%s backfill=%v apps=%.0f%%\n",
		t.NumNodes(), t.NumRouters(), t.Config().Groups, policy, *backfill, *appShare*100)

	if *showJobs {
		table := trace.NewTable("per-job schedule",
			"job", "nodes", "app", "comm-intensive", "wait (cycles)", "run (cycles)",
			"routers", "groups", "messages/packets")
		for _, rec := range s.SortedByStart() {
			app := "-"
			traffic := rec.MessagesSent
			if rec.RanApp {
				app = rec.Spec.App.Workload
				traffic = rec.AppPackets
			}
			routers, groups := s.Spans(rec)
			table.AddRow(rec.Spec.Name, rec.Spec.Nodes, app, rec.Spec.CommIntensive,
				rec.WaitCycles(), rec.FinishedAt-rec.StartedAt, routers, groups, traffic)
		}
		if err := table.Render(out); err != nil {
			return err
		}
	}

	st := s.Stats()
	fmt.Fprintf(out, "\njobs: %d submitted, %d started, %d finished (%d ran real applications)\n",
		st.Submitted, st.Started, st.Finished, st.AppJobs)
	fmt.Fprintf(out, "waiting: mean %.0f cycles, max %d cycles\n", st.MeanWaitCycles, st.MaxWaitCycles)
	fmt.Fprintf(out, "fragmentation: %.2f groups spanned per job on average\n", st.MeanGroupsSpanned)
	fmt.Fprintf(out, "machine utilization: %.1f%%, makespan %d cycles\n", st.Utilization*100, st.MakespanCycles)
	fmt.Fprintf(out, "fabric: %d packets injected by batch jobs\n", fab.PacketsInjected())
	for _, rec := range s.Jobs() {
		if rec.AppErr != nil {
			fmt.Fprintf(out, "warning: %s: %v\n", rec.Spec.Name, rec.AppErr)
		}
	}
	return nil
}

// openSpec builds the arrival spec for open-stream mode: an explicit -arrivals
// grammar when given, otherwise -clients default clients cycling through the
// -slo-classes list.
func openSpec(arrivals string, clients int, sloClasses string, meanGap int64) (dragonfly.ArrivalSpec, error) {
	if arrivals != "" {
		return dragonfly.ParseArrival(arrivals)
	}
	if clients <= 0 {
		clients = 3
	}
	var allowed []dragonfly.SLOClass
	for _, name := range strings.Split(sloClasses, ",") {
		if name = strings.TrimSpace(name); name != "" {
			c, err := arrival.ParseClass(name)
			if err != nil {
				return dragonfly.ArrivalSpec{}, err
			}
			allowed = append(allowed, c)
		}
	}
	if len(allowed) == 0 {
		return dragonfly.ArrivalSpec{}, fmt.Errorf("schedsim: -slo-classes selected no classes")
	}
	presets := arrival.DefaultClients(arrival.NumClasses, meanGap)
	byClass := make(map[dragonfly.SLOClass]dragonfly.ArrivalClient, len(presets))
	for _, p := range presets {
		p.Name = "" // re-derived per client by Normalize
		byClass[p.Class] = p
	}
	spec := dragonfly.ArrivalSpec{}
	for i := 0; i < clients; i++ {
		spec.Clients = append(spec.Clients, byClass[allowed[i%len(allowed)]])
	}
	return spec.Normalize(), nil
}

// runOpen drives the open-arrival mode and prints the SLO/fairness report.
func runOpen(out io.Writer, sys *dragonfly.System, policy sched.AllocationPolicy,
	arrivals string, clients int, sloClasses string, horizon int64, events int,
	meanGap, seed int64) error {
	spec, err := openSpec(arrivals, clients, sloClasses, meanGap)
	if err != nil {
		return err
	}
	cfg := sched.OpenConfig{Placement: policy, Seed: seed}
	if horizon > 0 {
		cfg.HorizonCycles = horizon
	} else {
		cfg.MaxJobEvents = events
	}
	o, err := sched.NewOpenStream(sys.Fabric(), spec, cfg)
	if err != nil {
		return err
	}
	o.Start()
	if err := o.Drive(nil); err != nil {
		return err
	}
	st := o.Stats()

	t := sys.Topology()
	fmt.Fprintf(out, "machine: %d nodes / %d routers / %d groups; placement=%s open-stream\n",
		t.NumNodes(), t.NumRouters(), t.Config().Groups, policy)
	fmt.Fprintf(out, "clients: %d streams", len(spec.Clients))
	for _, c := range spec.Clients {
		fmt.Fprintf(out, "  %s(%s:%s)", c.Name, c.Class, c.Dist)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "job events: %d admitted, %d started, %d finished; max queue %d\n",
		st.Admitted, st.Started, st.Finished, st.MaxQueueLength)

	table := trace.NewTable("per-SLO-class service",
		"class", "jobs", "slowdown p50", "q3", "max", "target", "viol %", "mean wait (cycles)")
	for c := 0; c < arrival.NumClasses; c++ {
		cs := st.Classes[c]
		if cs.Finished == 0 {
			continue
		}
		target := fmt.Sprintf("%.0f", cs.TargetSlowdown)
		if cs.TargetSlowdown > 1e18 {
			target = "-"
		}
		table.AddRow(dragonfly.SLOClass(c).String(), cs.Finished,
			cs.Slowdown.Median, cs.Slowdown.Q3, cs.Slowdown.Max,
			target, cs.ViolationFrac*100, cs.WaitCycles.Mean)
	}
	if err := table.Render(out); err != nil {
		return err
	}

	fmt.Fprintf(out, "\nfairness: Jain index %.4f across %d tenants\n", st.JainFairness, len(spec.Clients))
	fmt.Fprintf(out, "machine utilization: %.1f%%, fragmentation median %.3f, makespan %d cycles\n",
		st.Utilization*100, st.Fragmentation.Median, st.MakespanCycles)
	return nil
}
