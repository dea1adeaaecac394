package experiments

import (
	"context"
	"fmt"

	"dragonfly"
	"dragonfly/internal/harness"
	"dragonfly/internal/noise"
	"dragonfly/internal/trace"
	"dragonfly/internal/workloads"
)

// fullmachineResult is the payload of one machine-scale trial: the
// measurement plus the machine shape it ran on.
type fullmachineResult struct {
	Res     dragonfly.Result
	Nodes   int
	Routers int
	Links   int
	AdjKiB  float64
}

// FullMachine is the machine-scale scenario family enabled by the compact
// topology/link-state arenas: it climbs the geometry ladder (Small → Medium →
// Large, plus Daint under -full-aries) and, on every rung, measures a
// group-striped job under each routing configuration, for each workload, with
// and without background interference.
//
// The point of the family is not one figure of the paper but the claim behind
// all of them: the routing effects measured on toy geometries persist (or
// don't) at real-machine scale, where minimal paths are longer, global links
// are scarcer per node pair, and the same job occupies a far smaller fraction
// of the machine.
func FullMachine(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	size := opts.scaleSize(8 << 10)

	rungs := dragonfly.GeometryLadder()
	if opts.Quick {
		rungs = rungs[:2] // small, medium: CI-speed
	} else if !opts.FullAries {
		rungs = rungs[:3] // stop below Daint unless explicitly asked
	}
	workloadNames := []string{"alltoall", "halo3d"}
	if opts.Quick {
		workloadNames = workloadNames[:1]
	}
	noiseCases := []string{"idle", "noise"}
	setupNames := namesOf(StandardSetups())

	iters := opts.iters()
	if iters > 4 {
		iters = 4 // ladder sweeps multiply fast; per-rung precision is not the point
	}

	table := trace.NewTable(
		fmt.Sprintf("Machine-scale ladder: %d B messages, geometry x routing x workload x noise", size),
		"geometry", "nodes", "routers", "adj KiB", "routing", "workload", "noise",
		"median (cycles)", "mean", "q1", "q3", "job packets", "non-minimal %")

	var specs []harness.TrialSpec[fullmachineResult]
	for _, rung := range rungs {
		for si, setupName := range setupNames {
			for _, wname := range workloadNames {
				for _, noiseCase := range noiseCases {
					rung, si, wname, noiseCase := rung, si, wname, noiseCase
					specs = append(specs, harness.TrialSpec[fullmachineResult]{
						ID:       fmt.Sprintf("fullmachine/%s/%s/%s/%s", rung.Name, setupName, wname, noiseCase),
						Geometry: rung.Geometry,
						Body: func(ctx context.Context, sys *dragonfly.System) (fullmachineResult, error) {
							tp := sys.Topology()
							n := opts.Nodes
							if limit := tp.NumNodes() / 3; n > limit {
								n = limit
							}
							if n < 4 {
								n = 4
							}
							job, err := sys.Allocate(dragonfly.GroupStriped, n)
							if err != nil {
								return fullmachineResult{}, err
							}
							if noiseCase == "noise" {
								if sys.StartNoise(*opts.noiseSpec(noise.UniformRandom)) == nil {
									return fullmachineResult{}, fmt.Errorf("no room for the background generator")
								}
							}
							w, err := dragonfly.NewWorkload(wname, job.Size(), workloads.SizeFor(wname, size))
							if err != nil {
								return fullmachineResult{}, err
							}
							res, err := job.Run(w, dragonfly.RunOptions{
								Routing:    StandardSetups()[si],
								Iterations: iters,
								Context:    ctx,
							})
							if err != nil {
								return fullmachineResult{}, err
							}
							return fullmachineResult{
								Res:     res,
								Nodes:   tp.NumNodes(),
								Routers: tp.NumRouters(),
								Links:   tp.NumLinks(),
								AdjKiB:  float64(tp.AdjacencyBytes()) / 1024,
							}, nil
						},
					})
				}
			}
		}
	}

	results, err := runTrials(opts, specs)
	if err != nil {
		return nil, err
	}
	next := 0
	for _, rung := range rungs {
		for _, setupName := range setupNames {
			for _, wname := range workloadNames {
				for _, noiseCase := range noiseCases {
					fr := results[next]
					next++
					s := fr.Res.TimeSummary()
					table.AddRow(rung.Name, fr.Nodes, fr.Routers, fr.AdjKiB, setupName, wname, noiseCase,
						s.Median, s.Mean, s.Q1, s.Q3,
						fr.Res.Counters.RequestPackets, fr.Res.Counters.NonMinimalFraction()*100)
				}
			}
		}
	}
	return []*trace.Table{table}, nil
}
