package experiments

import (
	"fmt"

	"dragonfly"
	"dragonfly/internal/harness"
	"dragonfly/internal/mpi"
	"dragonfly/internal/perfmodel"
	"dragonfly/internal/routing"
	"dragonfly/internal/topo"
	"dragonfly/internal/trace"
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
			HighBiasSetup(),
		}
	}

	specs := make([]harness.TrialSpec[[]dragonfly.Result], len(cases))
	for i, c := range cases {
		specs[i] = harness.TrialSpec[[]dragonfly.Result]{
			ID:       "fig7/" + c.label,
			Geometry: opts.pizDaintGeometry(),
			Body:     opts.pairTrial(c.class, msgSize, staticModes, false),
		}
	}
	results, err := runTrials(opts, specs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		for _, meas := range res {
			label := fmt.Sprintf("%s/%s", cases[i].label, meas.Setup)
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
