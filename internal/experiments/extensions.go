package experiments

import (
	"fmt"

	"dragonfly"
	"dragonfly/internal/alloc"
	"dragonfly/internal/core"
	"dragonfly/internal/harness"
	"dragonfly/internal/noise"
	"dragonfly/internal/stats"
	"dragonfly/internal/trace"
	"dragonfly/internal/workloads"
)

// The experiments in this file go beyond the paper's figures: they probe the
// design space the paper only discusses qualitatively (§6 Limitations and the
// Discussion of oscillations in §5.1).

// NoiseSweep measures how the three routing configurations react as the
// intensity of the interfering background job grows, for a fixed alltoall
// workload. The paper argues that the benefit of biasing towards minimal paths
// depends on how much congestion-avoidance is actually needed; sweeping the
// interference intensity makes that trade-off visible on one axis.
func NoiseSweep(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	size := opts.scaleSize(8 << 10)
	table := trace.NewTable(
		fmt.Sprintf("Extension: alltoall %d B under increasing background interference", size),
		"noise interval (cycles)",
		"default median", "highbias median", "appaware median",
		"highbias vs default", "appaware vs default",
		"appaware % default traffic")

	intervals := []int64{0, 48_000, 12_000, 3_000}
	if opts.Quick {
		intervals = []int64{0, 12_000}
	}
	n := opts.Nodes / 2
	if n < 8 {
		n = 8
	}
	specs := make([]harness.TrialSpec, len(intervals))
	for i, interval := range intervals {
		var ns *dragonfly.NoiseConfig
		if interval > 0 {
			runOpts := opts
			runOpts.NoiseIntervalCycles = interval
			ns = runOpts.noiseSpec(noise.UniformRandom)
		}
		specs[i] = harness.TrialSpec{
			ID:        fmt.Sprintf("noisesweep/interval%d", interval),
			Geometry:  opts.pizDaintGeometry(),
			Placement: alloc.GroupStriped,
			JobNodes:  n,
			Noise:     ns,
			Setups:    StandardSetups,
			Workload: func(ranks int) workloads.Workload {
				return &workloads.Alltoall{MessageBytes: size, Iterations: 1}
			},
			Iterations: opts.iters(),
		}
	}
	results, err := opts.runTrials(specs)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		res, err := measurements(r)
		if err != nil {
			return nil, err
		}
		def, hb, aa := res[0], res[1], res[2] // StandardSetups order
		dm := stats.Median(def.TimesFloat())
		hm := stats.Median(hb.TimesFloat())
		am := stats.Median(aa.TimesFloat())
		label := "none"
		if intervals[i] > 0 {
			label = fmt.Sprintf("%d", intervals[i])
		}
		table.AddRow(label, dm, hm, am, hm/dm, am/dm,
			aa.SelectorStats.DefaultTrafficFraction()*100)
	}
	return []*trace.Table{table}, nil
}

// HysteresisStudy evaluates the oscillation-damping extension (the
// SwitchConfirmations knob added to the selector) on the workloads where the
// paper observed the plain algorithm failing to converge: broadcast of large
// messages and sweep3d. It reports the median time, the number of mode
// switches and the fraction of default-routed traffic per confirmation level.
func HysteresisStudy(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	cases := []struct {
		label string
		build func(ranks int) workloads.Workload
	}{
		{"broadcast/1MiB", func(r int) workloads.Workload {
			return &workloads.Broadcast{MessageBytes: opts.scaleSize(1 << 20), Iterations: 1}
		}},
		{"sweep3d/256", func(r int) workloads.Workload {
			return workloads.NewSweep3D(r, opts.scaleSize(256), 1)
		}},
	}
	confirmations := []int{1, 2, 4, 8}
	if opts.Quick {
		confirmations = []int{1, 4}
	}
	n := opts.Nodes / 2
	if n < 8 {
		n = 8
	}

	// One trial per (workload, confirmation level), all fanned out together.
	var specs []harness.TrialSpec
	for _, c := range cases {
		for _, k := range confirmations {
			k := k
			build := c.build
			specs = append(specs, harness.TrialSpec{
				ID:        fmt.Sprintf("hysteresis/%s/k%d", c.label, k),
				Meta:      k,
				Geometry:  opts.pizDaintGeometry(),
				Placement: alloc.GroupStriped,
				JobNodes:  n,
				Noise:     opts.noiseSpec(noise.UniformRandom),
				Setups: singleSetup(func() RoutingSetup {
					cfg := core.DefaultConfig()
					cfg.SwitchConfirmations = k
					return AppAwareSetup(cfg)
				}),
				Workload:   build,
				Iterations: opts.iters(),
			})
		}
	}
	results, err := opts.runTrials(specs)
	if err != nil {
		return nil, err
	}

	var tables []*trace.Table
	next := 0
	for _, c := range cases {
		table := trace.NewTable(
			fmt.Sprintf("Extension: selector hysteresis on %s", c.label),
			"switch confirmations", "median time (cycles)", "qcd", "mode switches", "% default traffic")
		for range confirmations {
			r := results[next]
			next++
			res, err := measurements(r)
			if err != nil {
				return nil, err
			}
			m := res[0]
			times := m.TimesFloat()
			st := m.SelectorStats
			table.AddRow(r.Spec.Meta, stats.Median(times), stats.QCD(times),
				st.Switches, st.DefaultTrafficFraction()*100)
		}
		tables = append(tables, table)
	}
	return tables, nil
}
