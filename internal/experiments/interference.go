package experiments

import (
	"context"
	"fmt"

	"dragonfly"
	"dragonfly/internal/core"
	"dragonfly/internal/harness"
	"dragonfly/internal/mpi"
	"dragonfly/internal/noise"
	"dragonfly/internal/patternaware"
	"dragonfly/internal/sched"
	"dragonfly/internal/stats"
	"dragonfly/internal/telemetry"
	"dragonfly/internal/topo"
	"dragonfly/internal/trace"
	"dragonfly/internal/workloads"
)

// PatternAwareSetup wraps the traffic-pattern-based classifier (the
// related-work baseline) as a routing setup comparable to the paper's
// application-aware selector.
func PatternAwareSetup() RoutingSetup {
	var classifiers []*patternaware.Classifier
	return RoutingSetup{
		Name: "PatternAware",
		Provider: func(int) mpi.RoutingProvider {
			c := patternaware.New()
			classifiers = append(classifiers, c)
			return c
		},
		Stats: func() core.Stats {
			var agg core.Stats
			for _, c := range classifiers {
				st := c.Stats()
				agg.Messages += st.Messages
				agg.Bytes += st.Bytes
				agg.DefaultBytes += st.DefaultBytes
				agg.BiasBytes += st.BiasBytes
				agg.Evaluations += st.Classifications
			}
			return agg
		},
	}
}

// baselineSetups builds the four configurations of the baseline comparison.
func baselineSetups() []RoutingSetup {
	return []RoutingSetup{
		DefaultSetup(),
		HighBiasSetup(),
		AppAwareSetup(core.DefaultConfig()),
		PatternAwareSetup(),
	}
}

// schedTrialResult is the payload of one scheduler-interference trial.
type schedTrialResult struct {
	Res        []dragonfly.Result
	SchedStats sched.Stats
}

// SchedulerInterference is an extension experiment: a measured halo3d job runs
// while a batch scheduler churns a synthetic production mix around it, and the
// measurement is repeated for every combination of scheduler placement policy
// (contiguous, random, hybrid) and routing setup (Default, High Bias,
// Application-Aware). It connects the paper's routing-based mitigation to the
// allocation-based mitigation of the related work: placement changes how much
// interference exists, the routing mode changes how much of it the job absorbs.
func SchedulerInterference(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	table := trace.NewTable(
		fmt.Sprintf("Scheduler interference: halo3d on %d nodes under a batch mix, by placement policy and routing", opts.Nodes/2),
		"placement", "routing", "median (cycles)", "norm median", "qcd",
		"appaware % default traffic", "mix jobs finished", "mean groups spanned")

	placements := []sched.AllocationPolicy{sched.PlaceContiguous, sched.PlaceRandom, sched.PlaceHybrid}
	jobNodes := opts.Nodes / 2
	if jobNodes < 8 {
		jobNodes = 8
	}
	specs := make([]harness.TrialSpec[schedTrialResult], len(placements))
	for pi, placement := range placements {
		specs[pi] = harness.TrialSpec[schedTrialResult]{
			ID:       "sched/" + placement.String(),
			Geometry: opts.pizDaintGeometry(),
			Body: func(ctx context.Context, sys *dragonfly.System) (schedTrialResult, error) {
				machine := sys.Topology().NumNodes()
				job, err := sys.Allocate(dragonfly.GroupStriped, min(jobNodes, machine/2))
				if err != nil {
					return schedTrialResult{}, err
				}

				// The batch mix occupies the rest of the machine for the whole
				// run. Its spec is seeded from the suite seed — NOT the trial
				// seed — so every placement policy faces the same job mix and
				// the rows differ only by placement.
				s := sched.New(sys.Fabric(), sched.Config{Placement: placement, Backfill: true, Seed: sys.Seed()})
				s.Reserve(job.Nodes())
				mixCfg := sched.DefaultMixConfig()
				mixCfg.Seed = opts.Seed + 17
				mixCfg.Jobs = 24
				if opts.Quick {
					mixCfg.Jobs = 8
					mixCfg.IntervalCycles *= 3
				}
				mixCfg.MaxNodes = machine / 4
				mixCfg.MinDurationCycles = 2_000_000
				mixCfg.MaxDurationCycles = 20_000_000
				mixSpecs, err := sched.GenerateMix(mixCfg, machine-job.Size())
				if err != nil {
					return schedTrialResult{}, err
				}
				for _, spec := range mixSpecs {
					if _, err := s.Submit(spec); err != nil {
						return schedTrialResult{}, err
					}
				}
				s.Start()

				w := workloads.NewHalo3D(job.Size(), opts.scaleSize(256), 2)
				res, err := job.Compare(w, StandardSetups(), dragonfly.RunOptions{
					Iterations: opts.iters(),
					Context:    ctx,
				})
				if err != nil {
					return schedTrialResult{}, err
				}
				return schedTrialResult{Res: res, SchedStats: s.Stats()}, nil
			},
		}
	}
	results, err := runTrials(opts, specs)
	if err != nil {
		return nil, err
	}
	for pi, tr := range results {
		defMedian := stats.Median(tr.Res[0].TimesFloat())
		for _, m := range tr.Res {
			times := m.TimesFloat()
			med := stats.Median(times)
			norm := 0.0
			if defMedian > 0 {
				norm = med / defMedian
			}
			pct := 0.0
			if m.Setup == "AppAware" {
				pct = m.SelectorStats.DefaultTrafficFraction() * 100
			}
			table.AddRow(placements[pi].String(), m.Setup, med, norm, stats.QCD(times),
				pct, tr.SchedStats.Finished, tr.SchedStats.MeanGroupsSpanned)
		}
	}
	return []*trace.Table{table}, nil
}

// BaselineComparison is an extension experiment comparing the paper's
// counter-model-driven selector against the traffic-pattern-based baseline
// (and the two static modes) on workloads where the two disagree: a
// latency-bound ping-pong, a bandwidth-bound alltoall and the halo3d stencil.
func BaselineComparison(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	cases := []microCase{
		{"pingpong", "pingpong/16KiB", func(r int, o Options) workloads.Workload {
			return &workloads.PingPong{MessageBytes: o.scaleSize(16 << 10), Iterations: 4}
		}},
		{"alltoall", "alltoall/16KiB", func(r int, o Options) workloads.Workload {
			return &workloads.Alltoall{MessageBytes: o.scaleSize(16 << 10), Iterations: 1}
		}},
		{"halo3d", "halo3d/512", func(r int, o Options) workloads.Workload {
			return workloads.NewHalo3D(r, o.scaleSize(512), 2)
		}},
	}
	if opts.Quick {
		cases = cases[:2]
	}
	specs := make([]harness.TrialSpec[[]dragonfly.Result], len(cases))
	for i, c := range cases {
		specs[i] = harness.TrialSpec[[]dragonfly.Result]{
			ID:       "baselines/" + c.label,
			Geometry: opts.pizDaintGeometry(),
			Body: opts.stripedTrial(opts.Nodes, opts.noiseSpec(noise.UniformRandom), baselineSetups,
				func(ranks int) workloads.Workload { return c.build(ranks, opts) }),
		}
	}
	results, err := runTrials(opts, specs)
	if err != nil {
		return nil, err
	}
	table := trace.NewTable(
		fmt.Sprintf("Selector baselines: AppAware (paper) vs PatternAware (related work) vs static, %d nodes", opts.Nodes),
		"benchmark", "setup", "median (cycles)", "norm median", "qcd", "% default traffic")
	for i, res := range results {
		defMedian := stats.Median(res[0].TimesFloat())
		for _, m := range res {
			times := m.TimesFloat()
			med := stats.Median(times)
			norm := 0.0
			if defMedian > 0 {
				norm = med / defMedian
			}
			pct := m.SelectorStats.DefaultTrafficFraction() * 100
			if m.Setup == "Default" {
				pct = 100
			}
			if m.Setup == "HighBias" {
				pct = 0
			}
			table.AddRow(cases[i].label, m.Setup, med, norm, stats.QCD(times), pct)
		}
	}
	return []*trace.Table{table}, nil
}

// CollectiveAlgorithms is an ablation over the interaction between the
// collective algorithm and the routing mode: the same logical alltoall or
// allreduce generates very different traffic depending on the algorithm
// (pairwise vs Bruck vs spread; recursive doubling vs ring vs Rabenseifner),
// and with it the best routing mode can change.
func CollectiveAlgorithms(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	size := opts.scaleSize(16 << 10)
	algos := []struct {
		label string
		body  func(r *mpi.Rank)
	}{
		{"alltoall/pairwise", func(r *mpi.Rank) { r.Alltoall(size) }},
		{"alltoall/bruck", func(r *mpi.Rank) { r.AlltoallBruck(size) }},
		{"alltoall/spread", func(r *mpi.Rank) { r.AlltoallSpread(size) }},
		{"allreduce/doubling", func(r *mpi.Rank) { r.Allreduce(size) }},
		{"allreduce/ring", func(r *mpi.Rank) { r.AllreduceRing(size) }},
		{"allreduce/rabenseifner", func(r *mpi.Rank) { r.AllreduceRabenseifner(size) }},
	}
	if opts.Quick {
		algos = []struct {
			label string
			body  func(r *mpi.Rank)
		}{algos[0], algos[1], algos[3], algos[4]}
	}
	specs := make([]harness.TrialSpec[[]dragonfly.Result], len(algos))
	for i, a := range algos {
		specs[i] = harness.TrialSpec[[]dragonfly.Result]{
			ID:       "collalgos/" + a.label,
			Geometry: opts.pizDaintGeometry(),
			Body: opts.stripedTrial(opts.Nodes, opts.noiseSpec(noise.UniformRandom), StandardSetups,
				func(ranks int) workloads.Workload { return workloads.Func{WorkloadName: a.label, Body: a.body} }),
		}
	}
	results, err := runTrials(opts, specs)
	if err != nil {
		return nil, err
	}
	table := trace.NewTable(
		fmt.Sprintf("Collective algorithm ablation, %d nodes, %d-byte blocks", opts.Nodes, size),
		"algorithm", "default median", "highbias norm median", "appaware norm median",
		"appaware % default traffic", "best static")
	for i, res := range results {
		def, hb, aa := res[0], res[1], res[2] // StandardSetups order
		defMedian := stats.Median(def.TimesFloat())
		hbMedian := stats.Median(hb.TimesFloat())
		aaMedian := stats.Median(aa.TimesFloat())
		norm := func(v float64) float64 {
			if defMedian > 0 {
				return v / defMedian
			}
			return 0
		}
		best := "Default"
		if hbMedian < defMedian {
			best = "HighBias"
		}
		table.AddRow(algos[i].label, defMedian, norm(hbMedian), norm(aaMedian),
			aa.SelectorStats.DefaultTrafficFraction()*100, best)
	}
	return []*trace.Table{table}, nil
}

// telemetryTrialResult is the payload of one telemetry-congestion trial.
type telemetryTrialResult struct {
	Samples          int
	MeanMaxUtil      float64
	PeakMaxUtil      float64
	HotspotIntervals int
	GlobalFlits      uint64
	IntraGroupFlits  uint64
	MeanStall        float64
	MeanLatency      float64
	GroupMatrix      [][]uint64
}

// TelemetryCongestion is an extension experiment: it runs an alltoall under an
// interfering bully job while a fabric-wide telemetry collector samples every
// tier, and reports the congestion time series and the group-to-group traffic
// concentration for the Adaptive and High-Bias modes. It quantifies the
// mechanism of §4.1: non-minimal routing spreads flits over more global links
// (flatter matrix, more total global flits), at the price of occupying
// resources of groups the job does not even use.
func TelemetryCongestion(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	setups := []struct {
		name  string
		build func() RoutingSetup
	}{
		{"Default", DefaultSetup},
		{"HighBias", HighBiasSetup},
	}
	specs := make([]harness.TrialSpec[telemetryTrialResult], len(setups))
	for si, s := range setups {
		build := s.build
		specs[si] = harness.TrialSpec[telemetryTrialResult]{
			ID:       "telemetry/" + s.name,
			Geometry: opts.pizDaintGeometry(),
			Body: func(ctx context.Context, sys *dragonfly.System) (telemetryTrialResult, error) {
				n := min(max(opts.Nodes/2, 8), sys.Topology().NumNodes()/2)
				job, err := sys.Allocate(dragonfly.GroupStriped, n)
				if err != nil {
					return telemetryTrialResult{}, err
				}
				sys.StartNoise(*opts.noiseSpec(noise.AlltoallBully))

				col := telemetry.MustNewCollector(sys.Fabric(), telemetry.Config{
					IntervalCycles: 50_000,
					TopLinks:       3,
				})
				col.Start(dragonfly.DefaultHorizon)

				w := &workloads.Alltoall{MessageBytes: opts.scaleSize(16 << 10), Iterations: 1}
				if _, err := job.Run(w, dragonfly.RunOptions{
					Routing:    build(),
					Iterations: min(opts.iters(), 10),
					Context:    ctx,
				}); err != nil {
					return telemetryTrialResult{}, err
				}
				col.Stop()
				col.Flush()

				maxUtil, _ := col.Series("max-util")
				stall, _ := col.Series("stall-ratio")
				lat, _ := col.Series("packet-latency")
				var globalFlits, intraGroupFlits uint64
				for _, s := range col.Samples() {
					globalFlits += s.Tiers[topo.LinkGlobal].Flits
					intraGroupFlits += s.Tiers[topo.LinkIntraGroup].Flits
				}
				return telemetryTrialResult{
					Samples:          len(col.Samples()),
					MeanMaxUtil:      stats.Mean(maxUtil),
					PeakMaxUtil:      stats.Max(maxUtil),
					HotspotIntervals: len(col.HotspotIntervals(0.8)),
					GlobalFlits:      globalFlits,
					IntraGroupFlits:  intraGroupFlits,
					MeanStall:        stats.Mean(stall),
					MeanLatency:      stats.Mean(lat),
					GroupMatrix:      col.AggregateGroupMatrix(),
				}, nil
			},
		}
	}
	results, err := runTrials(opts, specs)
	if err != nil {
		return nil, err
	}

	summary := trace.NewTable(
		fmt.Sprintf("Telemetry: alltoall/16KiB with a bully job, %d nodes", opts.Nodes/2),
		"routing", "samples", "mean max-util", "peak max-util",
		"hotspot intervals (>=80%)", "global flits", "intra-group flits",
		"mean stall ratio", "mean packet latency")
	var matrices []*trace.Table
	for si, tr := range results {
		summary.AddRow(setups[si].name, tr.Samples,
			tr.MeanMaxUtil, tr.PeakMaxUtil,
			tr.HotspotIntervals, tr.GlobalFlits, tr.IntraGroupFlits,
			tr.MeanStall, tr.MeanLatency)

		mt := trace.NewTable(fmt.Sprintf("Group-to-group flits under %s routing", setups[si].name), "src\\dst", "row")
		for i, row := range tr.GroupMatrix {
			mt.AddRow(fmt.Sprintf("g%d", i), fmt.Sprint(row))
		}
		matrices = append(matrices, mt)
	}
	return append([]*trace.Table{summary}, matrices...), nil
}
