package experiments

import (
	"context"
	"fmt"

	"dragonfly"
	"dragonfly/internal/harness"
	"dragonfly/internal/noise"
	"dragonfly/internal/stats"
	"dragonfly/internal/trace"
	"dragonfly/internal/workloads"
)

// cotenantResult is the payload of one co-tenancy trial: the victim's per-run
// measurement plus, when the neighbor was a real application, the neighbor's
// own per-job result.
type cotenantResult struct {
	Victim   dragonfly.Result
	Neighbor *dragonfly.Result
}

// cotenantNeighbors are the neighbor scenarios each routing configuration is
// measured against: the victim alone, next to the synthetic-noise stand-in
// the suite historically used, and next to two real co-scheduled
// applications driving actual workload traffic.
var cotenantNeighbors = []string{"alone", "noise", "halo3d", "allreduce"}

// CoTenancy is an extension experiment that retires the synthetic-noise
// approximation: an alltoall victim is measured under each routing
// configuration while sharing the machine with (a) nothing, (b) the
// fixed-rate background generator that previously stood in for neighbor
// jobs, and (c) real co-running applications (halo3d, allreduce) executed
// concurrently through System.RunConcurrent. Real neighbors exercise the
// fabric in correlated phases — bursts, barriers, quiet compute windows —
// that a constant-rate generator cannot produce, so the victim's slowdown
// and the routing configurations' ranking can both differ from the synthetic
// prediction. The per-job isolation of RunConcurrent also yields the
// *neighbor's* time, making the interference bidirectional for the first
// time.
func CoTenancy(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	size := opts.scaleSize(8 << 10)
	table := trace.NewTable(
		fmt.Sprintf("Extension: alltoall %d B victim next to synthetic vs. real neighbor jobs", size),
		"routing", "neighbor", "victim median (cycles)", "vs alone", "victim qcd",
		"victim packets", "victim minimal %", "neighbor median (cycles)")

	// Setups are built *inside* each trial body (one value per trial):
	// stateful configurations like AppAware carry per-run selector state and
	// must not be shared across parallel harness workers.
	setupNames := namesOf(StandardSetups())
	neighbors := cotenantNeighbors
	if opts.Quick {
		neighbors = []string{"alone", "noise", "halo3d"}
	}
	var specs []harness.TrialSpec[cotenantResult]
	for si, setupName := range setupNames {
		for _, neighbor := range neighbors {
			specs = append(specs, harness.TrialSpec[cotenantResult]{
				ID:       fmt.Sprintf("cotenant/%s/%s", setupName, neighbor),
				Geometry: opts.pizDaintGeometry(),
				Body: func(ctx context.Context, sys *dragonfly.System) (cotenantResult, error) {
					setup := StandardSetups()[si]
					n := opts.Nodes / 2
					if n < 8 {
						n = 8
					}
					// Leave room for an equally sized real neighbor plus some
					// free nodes for the synthetic generator scenario.
					if limit := sys.Topology().NumNodes() / 3; n > limit {
						n = limit
					}
					victim, err := sys.Allocate(dragonfly.GroupStriped, n)
					if err != nil {
						return cotenantResult{}, err
					}
					victimRun := dragonfly.JobRun{
						Job:      victim,
						Workload: &workloads.Alltoall{MessageBytes: size, Iterations: 1},
						Options: dragonfly.RunOptions{
							Routing:    setup,
							Iterations: opts.iters(),
							Context:    ctx,
						},
					}
					runs := []dragonfly.JobRun{victimRun}
					switch neighbor {
					case "alone":
					case "noise":
						if sys.StartNoise(*opts.noiseSpec(noise.UniformRandom)) == nil {
							return cotenantResult{}, fmt.Errorf("no room for the background generator")
						}
					default:
						nb, err := sys.Allocate(dragonfly.GroupStriped, n)
						if err != nil {
							return cotenantResult{}, err
						}
						w, err := dragonfly.NewWorkload(neighbor, nb.Size(), workloads.SizeFor(neighbor, size))
						if err != nil {
							return cotenantResult{}, err
						}
						runs = append(runs, dragonfly.JobRun{
							Job:      nb,
							Workload: w,
							Options: dragonfly.RunOptions{
								Routing:    DefaultSetup(),
								Iterations: opts.iters(),
								Context:    ctx,
							},
						})
					}
					rs, err := sys.RunConcurrent(runs)
					if err != nil {
						return cotenantResult{}, err
					}
					out := cotenantResult{Victim: rs[0]}
					if len(rs) > 1 {
						out.Neighbor = &rs[1]
					}
					return out, nil
				},
			})
		}
	}

	results, err := runTrials(opts, specs)
	if err != nil {
		return nil, err
	}
	aloneMedian := make(map[string]float64)
	next := 0
	for _, setupName := range setupNames {
		for _, neighbor := range neighbors {
			tr := results[next]
			next++
			times := tr.Victim.TimesFloat()
			med := stats.Median(times)
			if neighbor == "alone" {
				aloneMedian[setupName] = med
			}
			norm := 0.0
			if base := aloneMedian[setupName]; base > 0 {
				norm = med / base
			}
			minPct := 0.0
			if p := tr.Victim.Counters.RequestPackets; p > 0 {
				minPct = 100 * float64(tr.Victim.Counters.MinimalPackets) / float64(p)
			}
			neighborMed := "-"
			if tr.Neighbor != nil {
				neighborMed = fmt.Sprintf("%.0f", stats.Median(tr.Neighbor.TimesFloat()))
			}
			table.AddRow(setupName, neighbor, med, norm, stats.QCD(times),
				tr.Victim.Counters.RequestPackets, minPct, neighborMed)
		}
	}
	return []*trace.Table{table}, nil
}
