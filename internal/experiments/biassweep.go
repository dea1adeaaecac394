package experiments

import (
	"fmt"

	"dragonfly/internal/alloc"
	"dragonfly/internal/harness"
	"dragonfly/internal/mpi"
	"dragonfly/internal/noise"
	"dragonfly/internal/routing"
	"dragonfly/internal/stats"
	"dragonfly/internal/trace"
	"dragonfly/internal/workloads"
)

// BiasSweep is an extension experiment over the one lever the whole paper
// turns: the additive bias the UGAL cost model applies to non-minimal
// candidate paths. Cray does not publish the bias values behind ADAPTIVE_2/3;
// this sweep varies the bias continuously and measures a latency-bound
// inter-group ping-pong and a bandwidth-bound alltoall under background
// traffic, reporting the execution time and the fraction of packets routed
// minimally. It shows where the "low bias" and "high bias" regimes the paper
// relies on sit on the curve, and that the two workloads prefer opposite ends
// of it — the reason a single static bias cannot be optimal.
func BiasSweep(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	biases := []int64{0, 100, 200, 400, 800, 1600, 3200}
	if opts.Quick {
		biases = []int64{0, 200, 800, 3200}
	}

	cases := []struct {
		label string
		build func(ranks int) workloads.Workload
	}{
		{"pingpong/16KiB inter-group", func(ranks int) workloads.Workload {
			return &workloads.PingPong{MessageBytes: opts.scaleSize(16 << 10), Iterations: 4}
		}},
		{"alltoall/16KiB", func(ranks int) workloads.Workload {
			return &workloads.Alltoall{MessageBytes: opts.scaleSize(16 << 10), Iterations: 1}
		}},
	}

	// The swept routing mode, measured alone on each system.
	biased := singleSetup(func() RoutingSetup {
		return RoutingSetup{
			Name: "HighBias",
			Provider: func(int) mpi.RoutingProvider {
				return mpi.StaticRouting{Mode: routing.AdaptiveHighBias}
			},
		}
	})

	var specs []harness.TrialSpec
	for _, c := range cases {
		for _, bias := range biases {
			p := routing.DefaultParams()
			p.HighBiasCycles = bias
			if bias < p.LowBiasCycles {
				p.LowBiasCycles = bias
			}
			params := p
			specs = append(specs, harness.TrialSpec{
				ID:            fmt.Sprintf("biassweep/%s/bias%d", c.label, bias),
				Meta:          bias,
				Geometry:      opts.pizDaintGeometry(),
				RoutingParams: &params,
				Placement:     alloc.GroupStriped,
				JobNodes:      opts.Nodes,
				Noise:         opts.noiseSpec(noise.UniformRandom),
				Setups:        biased,
				Workload:      c.build,
				Iterations:    opts.iters(),
			})
		}
	}
	results, err := opts.runTrials(specs)
	if err != nil {
		return nil, err
	}

	table := trace.NewTable(
		fmt.Sprintf("Non-minimal bias sweep, %d nodes (ADAPTIVE-style UGAL with variable bias)", opts.Nodes),
		"benchmark", "bias (cycles)", "median (cycles)", "norm vs bias=0", "qcd", "minimal packets %")

	next := 0
	for _, c := range cases {
		var zeroBiasMedian float64
		for bi := range biases {
			r := results[next]
			next++
			res, err := measurements(r)
			if err != nil {
				return nil, err
			}
			m := res[0]
			times := m.TimesFloat()
			med := stats.Median(times)
			if bi == 0 {
				zeroBiasMedian = med
			}
			norm := 0.0
			if zeroBiasMedian > 0 {
				norm = med / zeroBiasMedian
			}
			minPct := 0.0
			if m.Counters.RequestPackets > 0 {
				minPct = 100 * float64(m.Counters.MinimalPackets) / float64(m.Counters.RequestPackets)
			}
			table.AddRow(c.label, r.Spec.Meta, med, norm, stats.QCD(times), minPct)
		}
	}
	return []*trace.Table{table}, nil
}
