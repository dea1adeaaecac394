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

// WinnerSummary is a convenience used by tests and the CLI to extract which
// routing mode had the lower median in a Figure-7 style table.
func WinnerSummary(t *trace.Table, labelA, labelB string) (winner string, ratio float64, err error) {
	var medA, medB float64
	var okA, okB bool
	for _, row := range t.Rows {
		if len(row) < 2 {
			continue
		}
		switch row[0] {
		case labelA:
			if _, err := fmt.Sscanf(row[1], "%f", &medA); err == nil {
				okA = true
			}
		case labelB:
			if _, err := fmt.Sscanf(row[1], "%f", &medB); err == nil {
				okB = true
			}
		}
	}
	if !okA || !okB {
		return "", 0, fmt.Errorf("experiments: labels %q/%q not found in table %q", labelA, labelB, t.Title)
	}
	if medA == 0 || medB == 0 {
		return "", 0, fmt.Errorf("experiments: zero median in table %q", t.Title)
	}
	if medA <= medB {
		return labelA, medB / medA, nil
	}
	return labelB, medA / medB, nil
}

// medianOf extracts the median column of the row with the given label.
func medianOf(t *trace.Table, label string) (float64, bool) {
	for _, row := range t.Rows {
		if len(row) >= 2 && row[0] == label {
			var v float64
			if _, err := fmt.Sscanf(row[1], "%f", &v); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// qcdOf extracts the QCD column (index 6 of summaryColumns) for a label.
func qcdOf(t *trace.Table, label string) (float64, bool) {
	for _, row := range t.Rows {
		if len(row) >= 7 && row[0] == label {
			var v float64
			if _, err := fmt.Sscanf(row[6], "%f", &v); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}
