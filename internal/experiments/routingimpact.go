package experiments

import (
	"fmt"

	"dragonfly/internal/harness"
	"dragonfly/internal/mpi"
	"dragonfly/internal/noise"
	"dragonfly/internal/perfmodel"
	"dragonfly/internal/routing"
	"dragonfly/internal/topo"
	"dragonfly/internal/trace"
	"dragonfly/internal/workloads"
)

// Figure7RoutingPingPong reproduces Figure 7: a large ping-pong measured under
// Adaptive and Adaptive-with-High-Bias routing, once with the two nodes in the
// same group (Intra-Group) and once in different groups (Inter-Groups), with
// the two routing modes alternated on successive iterations. Four tables are
// produced, one per sub-figure: (a) execution time, (b) stall ratio s,
// (c) packet latency L, (d) the Eq. 2 time estimate.
//
// The shape to reproduce: intra-group, Adaptive wins (spreading over more
// paths lowers the stalls); inter-group, Adaptive with High Bias wins (lower
// latency, comparable stalls) and shows less variability.
func Figure7RoutingPingPong(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	msgSize := opts.scaleSize(512 << 10) // scaled stand-in for the paper's 4 MiB

	timeTbl := trace.NewTable(
		fmt.Sprintf("Figure 7a: ping-pong %d B execution time (cycles)", msgSize),
		summaryColumns("allocation/routing")...)
	stallTbl := trace.NewTable("Figure 7b: stall ratio s (cycles per flit)",
		summaryColumns("allocation/routing")...)
	latTbl := trace.NewTable("Figure 7c: packet latency L (cycles)",
		summaryColumns("allocation/routing")...)
	estTbl := trace.NewTable("Figure 7d: model time estimate (cycles)",
		summaryColumns("allocation/routing")...)

	cases := []struct {
		label string
		class topo.AllocationClass
	}{
		{"Intra-Group", topo.AllocInterChassis},
		{"Inter-Groups", topo.AllocInterGroups},
	}
	staticModes := func() []RoutingSetup {
		return []RoutingSetup{
			{Name: "Adaptive", Provider: func(int) mpi.RoutingProvider { return mpi.StaticRouting{Mode: routing.Adaptive} }},
			{Name: "HighBias", Provider: func(int) mpi.RoutingProvider { return mpi.StaticRouting{Mode: routing.AdaptiveHighBias} }},
		}
	}

	specs := make([]harness.TrialSpec, len(cases))
	for i, c := range cases {
		specs[i] = harness.TrialSpec{
			ID:        "fig7/" + c.label,
			Meta:      c.label,
			Geometry:  opts.pizDaintGeometry(),
			PairAlloc: true,
			PairClass: c.class,
			Noise:     opts.noiseSpec(noise.UniformRandom),
			Setups:    staticModes,
			Workload: func(ranks int) workloads.Workload {
				return &workloads.PingPong{MessageBytes: msgSize, Iterations: 1}
			},
			Iterations: opts.iters(),
		}
	}
	results, err := opts.runTrials(specs)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		res, err := measurements(r)
		if err != nil {
			return nil, err
		}
		for _, meas := range res {
			label := fmt.Sprintf("%s/%s", r.Spec.Meta, meas.Setup)
			var stallsSeries, latSeries, estSeries []float64
			for _, d := range meas.Deltas {
				half := halveDelta(d)
				params := perfmodel.ParamsFromCounters(half)
				stallsSeries = append(stallsSeries, params.StallRatio)
				latSeries = append(latSeries, params.LatencyCycles)
				estSeries = append(estSeries, perfmodel.EstimateForSize(msgSize, params))
			}
			summaryRow(timeTbl, label, meas.TimesFloat())
			summaryRow(stallTbl, label, stallsSeries)
			summaryRow(latTbl, label, latSeries)
			summaryRow(estTbl, label, estSeries)
		}
	}
	return []*trace.Table{timeTbl, stallTbl, latTbl, estTbl}, nil
}
