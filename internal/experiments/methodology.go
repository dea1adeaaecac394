package experiments

import (
	"context"
	"fmt"

	"dragonfly"
	"dragonfly/internal/counters"
	"dragonfly/internal/harness"
	"dragonfly/internal/noise"
	"dragonfly/internal/perfmodel"
	"dragonfly/internal/stats"
	"dragonfly/internal/topo"
	"dragonfly/internal/trace"
	"dragonfly/internal/workloads"
)

// Figure3Allocations reproduces Figure 3: the distribution of ping-pong times
// for a 16 KiB message between two nodes placed at increasing topological
// distance (same blade, different blades, different chassis, different
// groups), with background traffic sharing the machine. Both the median and
// the spread (IQR, outliers) must grow with distance.
func Figure3Allocations(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	msgSize := opts.scaleSize(16 << 10)
	table := trace.NewTable(
		fmt.Sprintf("Figure 3: ping-pong %d B across allocation classes (cycles)", msgSize),
		summaryColumns("allocation", "max")...)

	classes := []topo.AllocationClass{
		topo.AllocInterNodes, topo.AllocInterBlades, topo.AllocInterChassis, topo.AllocInterGroups,
	}
	specs := make([]harness.TrialSpec[[]dragonfly.Result], len(classes))
	for i, class := range classes {
		specs[i] = harness.TrialSpec[[]dragonfly.Result]{
			ID:       "fig3/" + class.String(),
			Geometry: opts.pizDaintGeometry(),
			Body:     opts.pairTrial(class, msgSize, singleSetup(DefaultSetup), false),
		}
	}
	results, err := runTrials(opts, specs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		times := res[0].TimesFloat()
		summaryRow(table, classes[i].String(), times, stats.Max(times))
	}
	return []*trace.Table{table}, nil
}

// idleObservation is one row of the Table 1 trial: how much traffic the idle
// job's routers saw over one observation window.
type idleObservation struct {
	Mult, IdleCycles     int64
	Flits, StalledCycles uint64
}

// Table1IdleFlits reproduces Table 1: an application that only sleeps observes
// its routers' tile counters; doubling the sleep roughly doubles the observed
// incoming flits and stalled cycles even though the application sent nothing —
// correlation between execution time and router-counter traffic is not
// causation.
func Table1IdleFlits(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	baseIdle := int64(2_000_000) // "1 second" of simulated idling, scaled
	if opts.Quick {
		baseIdle = 400_000
	}
	spec := harness.TrialSpec[[]idleObservation]{
		ID:       "tab1/idle",
		Geometry: opts.pizDaintGeometry(),
		Body: func(ctx context.Context, sys *dragonfly.System) ([]idleObservation, error) {
			// The idle job: 16 nodes (or fewer on tiny systems), as in the
			// paper, placed contiguously (which draws no randomness).
			jobNodes := min(16, sys.Topology().NumNodes()/2)
			job, err := sys.Allocate(dragonfly.Contiguous, jobNodes)
			if err != nil {
				return nil, err
			}
			sys.StartNoise(*opts.noiseSpec(noise.UniformRandom))
			routers := job.Allocation().Routers()
			fabric, engine := sys.Fabric(), sys.Engine()
			var rows []idleObservation
			for _, mult := range []int64{1, 2} {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				beforeFlits, beforeStalls := fabric.IncomingFlits(routers)
				deadline := engine.Now() + baseIdle*mult
				if err := engine.RunUntil(deadline); err != nil {
					return nil, err
				}
				afterFlits, afterStalls := fabric.IncomingFlits(routers)
				rows = append(rows, idleObservation{
					Mult: mult, IdleCycles: baseIdle * mult,
					Flits: afterFlits - beforeFlits, StalledCycles: afterStalls - beforeStalls,
				})
			}
			return rows, nil
		},
	}
	results, err := runTrials(opts, []harness.TrialSpec[[]idleObservation]{spec})
	if err != nil {
		return nil, err
	}
	table := trace.NewTable(
		"Table 1: idle time vs observed router-tile traffic",
		"idle (units)", "idle (cycles)", "incoming flits", "stalled cycles")
	for _, row := range results[0] {
		table.AddRow(row.Mult, row.IdleCycles, row.Flits, row.StalledCycles)
	}
	return []*trace.Table{table}, nil
}

// Figure4OnNodeAlltoall reproduces Figure 4: an MPI_Alltoall between 8 ranks
// on the same node uses no network at all, yet its execution time still varies
// because of host-side noise — so communication-time variability alone must
// not be read as network noise.
func Figure4OnNodeAlltoall(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	sizes := []int64{64, 1 << 10, 16 << 10, 128 << 10}
	specs := make([]harness.TrialSpec[[]dragonfly.Result], len(sizes))
	for i, base := range sizes {
		size := opts.scaleSize(base)
		specs[i] = harness.TrialSpec[[]dragonfly.Result]{
			ID:       fmt.Sprintf("fig4/size%d", base),
			Geometry: opts.pizDaintGeometry(),
			Body: func(ctx context.Context, sys *dragonfly.System) ([]dragonfly.Result, error) {
				// Eight ranks pinned to the same node: every transfer is a
				// loopback copy.
				job := sys.JobFromNodes(make([]topo.NodeID, 8))
				return job.Compare(&workloads.Alltoall{MessageBytes: size, Iterations: 1},
					[]RoutingSetup{DefaultSetup()}, dragonfly.RunOptions{
						Iterations: opts.iters(),
						HostNoise:  noise.HostNoise(),
						Context:    ctx,
					})
			},
		}
	}
	results, err := runTrials(opts, specs)
	if err != nil {
		return nil, err
	}
	table := trace.NewTable(
		"Figure 4: on-node alltoall (8 ranks, one node) execution time vs size (cycles)",
		summaryColumns("message size (B)", "nic packets")...)
	for i, res := range results {
		m := res[0]
		summaryRow(table, fmt.Sprintf("%d", opts.scaleSize(sizes[i])), m.TimesFloat(), m.Counters.RequestPackets)
	}
	return []*trace.Table{table}, nil
}

// Figure5QCD reproduces Figure 5: for an inter-group ping-pong, the quartile
// coefficient of dispersion of the end-to-end execution time overestimates the
// QCD of the network packet latency, especially for small messages, and the
// two converge as the message size grows.
func Figure5QCD(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	sizes := []int64{128, 1 << 10, 16 << 10, 128 << 10, 1 << 20}
	if opts.Quick {
		sizes = sizes[:3]
	}
	specs := make([]harness.TrialSpec[[]dragonfly.Result], len(sizes))
	for i, base := range sizes {
		specs[i] = harness.TrialSpec[[]dragonfly.Result]{
			ID:       fmt.Sprintf("fig5/size%d", base),
			Geometry: opts.pizDaintGeometry(),
			Body:     opts.pairTrial(topo.AllocInterGroups, opts.scaleSize(base), singleSetup(DefaultSetup), true),
		}
	}
	results, err := runTrials(opts, specs)
	if err != nil {
		return nil, err
	}
	table := trace.NewTable(
		"Figure 5: QCD of execution time vs QCD of packet latency (inter-group ping-pong)",
		"message size (B)", "qcd exec time", "qcd packet latency", "median exec (cycles)", "median latency (cycles)")
	for i, res := range results {
		m := res[0]
		times := m.TimesFloat()
		latencies := make([]float64, 0, len(m.Deltas))
		for _, d := range m.Deltas {
			latencies = append(latencies, d.AvgPacketLatency())
		}
		table.AddRow(fmt.Sprintf("%d", opts.scaleSize(sizes[i])),
			stats.QCD(times), stats.QCD(latencies),
			stats.Median(times), stats.Median(latencies))
	}
	return []*trace.Table{table}, nil
}

// ModelValidation reproduces the §2.4 validation of the performance model:
// across allocations and message sizes, the Eq. 2 estimate computed from the
// observed counters must correlate strongly with the measured transmission
// time (the paper reports an average correlation of 79%).
func ModelValidation(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	sizes := []int64{128, 4 << 10, 64 << 10, 512 << 10}
	if opts.Quick {
		sizes = sizes[:3]
	}
	allocsPerSize := 6
	if opts.Quick {
		allocsPerSize = 3
	}
	classes := []topo.AllocationClass{
		topo.AllocInterBlades, topo.AllocInterChassis, topo.AllocInterGroups,
	}

	var specs []harness.TrialSpec[[]dragonfly.Result]
	for _, base := range sizes {
		for run := 0; run < allocsPerSize; run++ {
			specs = append(specs, harness.TrialSpec[[]dragonfly.Result]{
				ID:       fmt.Sprintf("model/size%d/run%d", base, run),
				Geometry: opts.pizDaintGeometry(),
				Body:     opts.pairTrial(classes[run%len(classes)], opts.scaleSize(base), singleSetup(DefaultSetup), false),
			})
		}
	}
	results, err := runTrials(opts, specs)
	if err != nil {
		return nil, err
	}

	table := trace.NewTable(
		"Performance model validation (Eq. 2 estimate vs measured ping-pong time)",
		"message size (B)", "pearson correlation", "samples")
	var all []float64
	next := 0
	for _, base := range sizes {
		size := opts.scaleSize(base)
		var measured, estimated []float64
		for run := 0; run < allocsPerSize; run++ {
			m := results[next][0]
			next++
			for i, d := range m.Deltas {
				// The delta covers a full round trip (two messages); halve it
				// to approximate one transmission, matching T_msg.
				params := perfmodel.ParamsFromCounters(halveDelta(d))
				estimated = append(estimated, perfmodel.EstimateForSize(size, params))
				measured = append(measured, float64(m.Times[i])/2)
			}
		}
		r, err := stats.PearsonCorrelation(measured, estimated)
		if err != nil {
			return nil, err
		}
		all = append(all, r)
		table.AddRow(fmt.Sprintf("%d", size), r, len(measured))
	}
	table.AddRow("average", stats.Mean(all), "")
	return []*trace.Table{table}, nil
}

// halveDelta divides a round-trip counter delta by two (both directions of a
// ping-pong contribute to the job-wide counters).
func halveDelta(d counters.NIC) counters.NIC {
	return counters.NIC{
		RequestFlits:              d.RequestFlits / 2,
		RequestFlitsStalledCycles: d.RequestFlitsStalledCycles / 2,
		RequestPackets:            d.RequestPackets / 2,
		RequestPacketsCumLatency:  d.RequestPacketsCumLatency / 2,
		MinimalPackets:            d.MinimalPackets / 2,
		NonMinimalPackets:         d.NonMinimalPackets / 2,
	}
}
