package experiments

import (
	"context"
	"fmt"

	"dragonfly"
	"dragonfly/internal/arrival"
	"dragonfly/internal/harness"
	"dragonfly/internal/noise"
	"dragonfly/internal/sched"
	"dragonfly/internal/trace"
)

// openstreamResult is the payload of one open-arrival trial.
type openstreamResult struct {
	St      sched.OpenStats
	Packets uint64
}

// OpenStream is the always-on cluster scenario: instead of draining a fixed
// job mix, each trial runs an open arrival process — three tenant classes
// (latency, batch, best-effort) submitting Poisson/Gamma/Weibull streams with
// a diurnal best-effort tide — against the live machine until a fixed number
// of job events has been admitted and drained. The grid crosses the placement
// policies the paper discusses (§1, §6) with compute-only versus
// traffic-generating jobs, and reports what a capacity planner would ask of
// each: utilization, per-SLO-class slowdown distributions and violation
// rates, the Jain fairness index across tenants, and the fragmentation the
// placement policy leaves behind.
//
// Every metric is folded streaming (stats.Digest), so the same experiment
// scales from the CI-sized quick run to million-event horizons without
// growing memory.
func OpenStream(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	geometry := opts.pizDaintGeometry()

	events := 6_000
	if opts.Quick {
		events = 900
	}
	// Offered load targets ~3/4 utilization on any geometry: the default
	// three-client mix averages ~7.5M node-cycles of work per job, so scale
	// the per-client mean gap inversely with the machine size.
	meanGap := int64(150_000 * 192 / geometry.Nodes())
	if meanGap < 1_000 {
		meanGap = 1_000
	}

	placements := []sched.AllocationPolicy{
		sched.PlaceContiguous, sched.PlaceRandom, sched.PlaceGroupStriped,
	}
	trafficCases := []string{"compute", "traffic"}

	table := trace.NewTable(
		fmt.Sprintf("Open arrival streams: %d job events, 3 SLO classes, placement x traffic", events),
		"placement", "traffic", "jobs", "util %", "jain", "max queue", "frag (median)",
		"lat p50", "lat q3", "lat viol %", "batch p50", "batch q3", "batch viol %",
		"be p50", "be q3", "packets")

	var specs []harness.TrialSpec[openstreamResult]
	for _, placement := range placements {
		for _, trafficCase := range trafficCases {
			placement, trafficCase := placement, trafficCase
			specs = append(specs, harness.TrialSpec[openstreamResult]{
				ID:       fmt.Sprintf("openstream/%s/%s", placement, trafficCase),
				Geometry: geometry,
				Body: func(ctx context.Context, sys *dragonfly.System) (openstreamResult, error) {
					spec := arrival.Spec{Clients: arrival.DefaultClients(3, meanGap)}.Normalize()
					cfg := sched.OpenConfig{
						Placement:    placement,
						Seed:         sys.Seed(),
						MaxJobEvents: events,
					}
					if trafficCase == "traffic" {
						cfg.Traffic = sched.TrafficSpec{
							Pattern:        noise.UniformRandom,
							MessageBytes:   2 << 10,
							IntervalCycles: 200_000,
						}
					}
					o, err := sched.NewOpenStream(sys.Fabric(), spec, cfg)
					if err != nil {
						return openstreamResult{}, err
					}
					o.Start()
					if err := o.Drive(ctx); err != nil {
						return openstreamResult{}, err
					}
					return openstreamResult{
						St:      o.Stats(),
						Packets: sys.MachineCounters().RequestPackets,
					}, nil
				},
			})
		}
	}

	results, err := runTrials(opts, specs)
	if err != nil {
		return nil, err
	}
	next := 0
	for _, placement := range placements {
		for _, trafficCase := range trafficCases {
			or := results[next]
			next++
			st := or.St
			lat := st.Classes[arrival.Latency]
			bat := st.Classes[arrival.Batch]
			be := st.Classes[arrival.BestEffort]
			table.AddRow(placement.String(), trafficCase, st.Finished,
				st.Utilization*100, st.JainFairness, st.MaxQueueLength, st.Fragmentation.Median,
				lat.Slowdown.Median, lat.Slowdown.Q3, lat.ViolationFrac*100,
				bat.Slowdown.Median, bat.Slowdown.Q3, bat.ViolationFrac*100,
				be.Slowdown.Median, be.Slowdown.Q3,
				or.Packets)
		}
	}
	return []*trace.Table{table}, nil
}
