package main

import (
	"runtime"

	"dragonfly"
	"dragonfly/internal/experiments"
	"dragonfly/internal/workloads"
)

// simSpec declares a simulation workload: one machine, one measured (victim)
// job and what it runs. A trial resets the machine to the trial seed,
// allocates the victim (which also starts any WithNoise background job) and
// runs the workload once.
type simSpec struct {
	geometry dragonfly.Geometry
	noise    *dragonfly.NoiseConfig
	policy   dragonfly.Policy
	nodes    int
	routing  func() dragonfly.Routing
	workload func() dragonfly.Workload
	// messages is the number of messages the victim must deliver per trial.
	messages uint64
}

// options returns the System options of the workload's machine.
func (s *simSpec) options(seed int64) []dragonfly.Option {
	opts := []dragonfly.Option{dragonfly.WithGeometry(s.geometry), dragonfly.WithSeed(seed)}
	if s.noise != nil {
		opts = append(opts, dragonfly.WithNoise(*s.noise))
	}
	return opts
}

// suiteSpec declares the experiment-suite workload: every listed experiment
// of internal/experiments at one option scale, run as one pass.
type suiteSpec struct {
	ids  []string
	opts func(seed int64) experiments.Options
	// machines are the geometries the suite's trials build; setup builds
	// each of them once.
	machines []dragonfly.Geometry
	// probe is the simulation trial whose layers the traced run isolates: the
	// suite's own trials run inside the harness, out of the benchmark's reach.
	probe *simSpec
}

// workload is one named benchmark workload: exactly one of sim and suite is set.
type workload struct {
	name  string
	sim   *simSpec
	suite *suiteSpec
}

// halo3DMessages is the number of face messages NewHalo3D(ranks, _, iters)
// sends: every rank exchanges one message with each grid neighbour per step.
func halo3DMessages(ranks, iters int) uint64 {
	px, py, pz := workloads.Factor3D(ranks)
	faces := (px-1)*py*pz + px*(py-1)*pz + px*py*(pz-1)
	return uint64(2 * faces * iters)
}

// reducedAries is the reduced Aries machine the Figure 8-10 experiments build
// at the default (non-FullAries) scale: 6 groups like Piz Daint's Figure 8
// allocation, 5 like Cori's Figure 9.
func reducedAries(groups int) dragonfly.Geometry {
	return dragonfly.Geometry{
		Groups:                groups,
		ChassisPerGroup:       2,
		BladesPerChassis:      8,
		NodesPerBlade:         2,
		GlobalLinksPerRouter:  4,
		IntraGroupLinkWidth:   3,
		IntraChassisLinkWidth: 1,
		GlobalLinkWidth:       2,
	}
}

// workloadList returns the benchmark's workloads. Why each one exists is
// recorded in BENCHMARK.json and bench/README.md.
func workloadList() []workload {
	return []workload{
		{name: "daint_alltoall_noisy", sim: &simSpec{
			geometry: dragonfly.Daint,
			noise:    &dragonfly.NoiseConfig{Pattern: dragonfly.NoiseUniform, Nodes: 48},
			policy:   dragonfly.GroupStriped,
			nodes:    48,
			routing:  dragonfly.DefaultRouting,
			workload: func() dragonfly.Workload { return &workloads.Alltoall{MessageBytes: 512, Iterations: 1} },
			messages: 48 * 47,
		}},
		{name: "daint_halo3d_appaware", sim: &simSpec{
			geometry: dragonfly.Daint,
			policy:   dragonfly.Contiguous,
			nodes:    256,
			routing:  dragonfly.AppAware,
			workload: func() dragonfly.Workload { return workloads.NewHalo3D(256, 128, 3) },
			messages: halo3DMessages(256, 3),
		}},
		{name: "medium_allreduce_appaware", sim: &simSpec{
			geometry: dragonfly.Medium,
			policy:   dragonfly.RandomScatter,
			nodes:    64,
			routing:  dragonfly.AppAware,
			workload: func() dragonfly.Workload { return &workloads.Allreduce{Elements: 2, Iterations: 100} },
			// Recursive doubling: log2(64) = 6 exchanges per rank per call.
			messages: 64 * 6 * 100,
		}},
		{name: "paper_suite_quick", suite: &suiteSpec{
			ids: []string{"fig3", "tab1", "fig4", "fig5", "fig7", "model", "fig8", "fig9", "fig10"},
			opts: func(seed int64) experiments.Options {
				o := experiments.QuickOptions()
				o.Seed = seed
				o.Parallel = runtime.GOMAXPROCS(0)
				return o
			},
			machines: []dragonfly.Geometry{reducedAries(6), reducedAries(5)},
			probe: &simSpec{
				geometry: reducedAries(6),
				noise:    &dragonfly.NoiseConfig{Pattern: dragonfly.NoiseUniform, Nodes: 8, IntervalCycles: 12_000},
				policy:   dragonfly.GroupStriped,
				nodes:    16,
				routing:  dragonfly.AppAware,
				workload: func() dragonfly.Workload { return &workloads.Alltoall{MessageBytes: 256, Iterations: 1} },
				messages: 16 * 15,
			},
		}},
	}
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
