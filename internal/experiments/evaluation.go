package experiments

import (
	"fmt"

	"dragonfly"
	"dragonfly/internal/core"
	"dragonfly/internal/harness"
	"dragonfly/internal/noise"
	"dragonfly/internal/stats"
	"dragonfly/internal/topo"
	"dragonfly/internal/trace"
	"dragonfly/internal/workloads"
)

// microCase is one (benchmark, input size) cell of Figures 8/9.
type microCase struct {
	name  string
	label string
	build func(ranks int, opts Options) workloads.Workload
}

// microCases returns the benchmark/input-size grid of Figures 8 and 9, with
// sizes scaled down from the paper (flags scale them back up).
func microCases(opts Options) []microCase {
	size := func(b int64) int64 { return opts.scaleSize(b) }
	cases := []microCase{
		{"pingpong", "pingpong/16KiB", func(r int, o Options) workloads.Workload {
			return &workloads.PingPong{MessageBytes: size(16 << 10), Iterations: 4}
		}},
		{"pingpong", "pingpong/512KiB", func(r int, o Options) workloads.Workload {
			return &workloads.PingPong{MessageBytes: size(512 << 10), Iterations: 2}
		}},
		{"barrier", "barrier", func(r int, o Options) workloads.Workload {
			return &workloads.Barrier{Iterations: 4}
		}},
		{"allreduce", "allreduce/1Ki elems", func(r int, o Options) workloads.Workload {
			return &workloads.Allreduce{Elements: size(1 << 10), Iterations: 2}
		}},
		{"allreduce", "allreduce/64Ki elems", func(r int, o Options) workloads.Workload {
			return &workloads.Allreduce{Elements: size(64 << 10), Iterations: 1}
		}},
		{"alltoall", "alltoall/1KiB", func(r int, o Options) workloads.Workload {
			return &workloads.Alltoall{MessageBytes: size(1 << 10), Iterations: 1}
		}},
		{"alltoall", "alltoall/16KiB", func(r int, o Options) workloads.Workload {
			return &workloads.Alltoall{MessageBytes: size(16 << 10), Iterations: 1}
		}},
		{"broadcast", "broadcast/16KiB", func(r int, o Options) workloads.Workload {
			return &workloads.Broadcast{MessageBytes: size(16 << 10), Iterations: 2}
		}},
		{"broadcast", "broadcast/1MiB", func(r int, o Options) workloads.Workload {
			return &workloads.Broadcast{MessageBytes: size(1 << 20), Iterations: 1}
		}},
		{"halo3d", "halo3d/256", func(r int, o Options) workloads.Workload {
			return workloads.NewHalo3D(r, size(256), 2)
		}},
		{"halo3d", "halo3d/1024", func(r int, o Options) workloads.Workload {
			return workloads.NewHalo3D(r, size(1024), 1)
		}},
		{"sweep3d", "sweep3d/256", func(r int, o Options) workloads.Workload {
			return workloads.NewSweep3D(r, size(256), 1)
		}},
	}
	if opts.Quick {
		// A representative subset keeps the CI run short while still touching
		// every benchmark family at least once.
		return []microCase{cases[0], cases[2], cases[5], cases[7], cases[9], cases[11]}
	}
	return cases
}

// runComparison measures all routing setups for a list of cases on one system
// geometry and emits a normalized table in the style of Figures 8-10: every
// execution time is divided by the median of the Default configuration. Each
// case is one trial: a GroupStriped job with background noise, measured
// under the three standard setups.
func runComparison(opts Options, geometry topo.Config, idPrefix, title string, jobNodes int,
	cases []microCase) (*trace.Table, error) {

	table := trace.NewTable(title,
		"benchmark", "default median (cycles)",
		"default norm median", "default norm iqr",
		"highbias norm median", "highbias norm iqr",
		"appaware norm median", "appaware norm iqr",
		"appaware % default traffic", "appaware wins vs worst")

	specs := make([]harness.TrialSpec[[]dragonfly.Result], len(cases))
	for i, c := range cases {
		specs[i] = harness.TrialSpec[[]dragonfly.Result]{
			ID:       idPrefix + "/" + c.label,
			Geometry: geometry,
			Body: opts.stripedTrial(jobNodes, opts.noiseSpec(noise.UniformRandom), StandardSetups,
				func(ranks int) workloads.Workload { return c.build(ranks, opts) }),
		}
	}
	results, err := runTrials(opts, specs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		def, hb, aa := res[0], res[1], res[2] // StandardSetups order
		defMedian := stats.Median(def.TimesFloat())
		norm := func(m dragonfly.Result) (median, iqr float64) {
			xs := stats.Normalize(m.TimesFloat(), defMedian)
			return stats.Median(xs), stats.IQR(xs)
		}
		dm, di := norm(def)
		hm, hi := norm(hb)
		am, ai := norm(aa)
		worst := dm
		if hm > worst {
			worst = hm
		}
		table.AddRow(cases[i].label, defMedian,
			dm, di, hm, hi, am, ai,
			aa.SelectorStats.DefaultTrafficFraction()*100,
			boolLabel(am <= worst*1.05))
	}
	return table, nil
}

// boolLabel renders a yes/no cell.
func boolLabel(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// Figure8Microbenchmarks reproduces Figure 8: the microbenchmark grid on the
// Piz Daint style system (6 groups), comparing Default, Adaptive with High
// Bias and Application-Aware routing, normalized to the Default median. The
// paper runs 1024 nodes over 257 routers; the default here is Options.Nodes
// (48) on a reduced geometry — pass Nodes/FullAries to scale up.
func Figure8Microbenchmarks(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	title := fmt.Sprintf("Figure 8: microbenchmarks, %d nodes, Piz Daint style (6 groups), normalized to Default median", opts.Nodes)
	t, err := runComparison(opts, opts.pizDaintGeometry(), "fig8", title, opts.Nodes, microCases(opts))
	if err != nil {
		return nil, err
	}
	return []*trace.Table{t}, nil
}

// Figure9MicrobenchmarksCori reproduces Figure 9: the same grid on the Cori
// style system (5 groups) with a 64-node (default: Nodes/2) job.
func Figure9MicrobenchmarksCori(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	nodes := opts.Nodes / 2
	if nodes < 8 {
		nodes = 8
	}
	title := fmt.Sprintf("Figure 9: microbenchmarks, %d nodes, Cori style (5 groups), normalized to Default median", nodes)
	t, err := runComparison(opts, opts.coriGeometry(), "fig9", title, nodes, microCases(opts))
	if err != nil {
		return nil, err
	}
	return []*trace.Table{t}, nil
}

// appCases returns the application-proxy grid of Figure 10.
func appCases(opts Options) []microCase {
	mk := func(name string, build func(ranks int) workloads.Workload) microCase {
		return microCase{name: name, label: name, build: func(r int, _ Options) workloads.Workload { return build(r) }}
	}
	cases := []microCase{
		mk("cp2k", func(r int) workloads.Workload { return workloads.NewCP2K(r, 32) }),
		mk("wrf-b", func(r int) workloads.Workload { return workloads.NewWRF(r, 64, false) }),
		mk("wrf-t", func(r int) workloads.Workload { return workloads.NewWRF(r, 64, true) }),
		mk("lammps", func(r int) workloads.Workload { return workloads.NewLAMMPS(r, 16) }),
		mk("qe", func(r int) workloads.Workload { return workloads.NewQuantumEspresso(r, 48) }),
		mk("nekbone", func(r int) workloads.Workload { return workloads.NewNekbone(r, 256) }),
		mk("vpfft", func(r int) workloads.Workload { return workloads.NewVPFFT(r, 48) }),
		mk("amber", func(r int) workloads.Workload { return workloads.NewAmber(r, 8) }),
		mk("milc", func(r int) workloads.Workload { return workloads.NewMILC(r, 12) }),
		mk("hpcg", func(r int) workloads.Workload { return workloads.NewHPCG(r, 24) }),
		mk("bfs", func(r int) workloads.Workload { return workloads.NewBFS(r, 18) }),
		mk("sssp", func(r int) workloads.Workload { return workloads.NewSSSP(r, 18) }),
		mk("fft-large", func(r int) workloads.Workload { return workloads.NewFFT(r, 96) }),
	}
	if opts.Quick {
		// Small problem scales keep the CI run short while still exercising a
		// halo-based, an FFT-based and a graph-based proxy.
		return []microCase{
			mk("lammps", func(r int) workloads.Workload { return workloads.NewLAMMPS(r, 2) }),
			mk("milc", func(r int) workloads.Workload { return workloads.NewMILC(r, 6) }),
			mk("bfs", func(r int) workloads.Workload { return workloads.NewBFS(r, 12) }),
			mk("fft-large", func(r int) workloads.Workload { return workloads.NewFFT(r, 24) }),
		}
	}
	return cases
}

// Figure10Applications reproduces Figure 10: the application proxies under the
// three routing configurations (normalized to the Default median), plus the
// FFT run on a second, smaller allocation showing that the best static routing
// flips with the allocation while the application-aware selector tracks it.
func Figure10Applications(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	title := fmt.Sprintf("Figure 10: applications, %d nodes, normalized to Default median", opts.Nodes)
	apps, err := runComparison(opts, opts.pizDaintGeometry(), "fig10", title, opts.Nodes, appCases(opts))
	if err != nil {
		return nil, err
	}
	// FFT on the smaller allocation (the paper's 64-node FFT column).
	smallNodes := opts.Nodes / 4
	if smallNodes < 4 {
		smallNodes = 4
	}
	fftScale := int64(96)
	if opts.Quick {
		fftScale = 24
	}
	fftSmall := []microCase{{
		name:  "fft",
		label: fmt.Sprintf("fft-small/%d nodes", smallNodes),
		build: func(r int, _ Options) workloads.Workload { return workloads.NewFFT(r, fftScale) },
	}}
	smallTitle := fmt.Sprintf("Figure 10 (right): FFT on a %d-node allocation, normalized to Default median", smallNodes)
	small, err := runComparison(opts, opts.pizDaintGeometry(), "fig10-small", smallTitle, smallNodes, fftSmall)
	if err != nil {
		return nil, err
	}
	return []*trace.Table{apps, small}, nil
}

// ablationPoint is one swept configuration of the selector ablations.
type ablationPoint struct {
	id  string
	cfg core.Config
}

// ablationSpecs declares the alltoall-under-noise trial every ablation point
// is measured with.
func ablationSpecs(opts Options, points []ablationPoint) []harness.TrialSpec[[]dragonfly.Result] {
	size := opts.scaleSize(16 << 10)
	n := opts.Nodes / 2
	if n < 8 {
		n = 8
	}
	specs := make([]harness.TrialSpec[[]dragonfly.Result], len(points))
	for i, p := range points {
		specs[i] = harness.TrialSpec[[]dragonfly.Result]{
			ID:       "ablations/" + p.id,
			Geometry: opts.pizDaintGeometry(),
			Body: opts.stripedTrial(n, opts.noiseSpec(noise.UniformRandom),
				singleSetup(func() RoutingSetup { return AppAwareSetup(p.cfg) }),
				func(ranks int) workloads.Workload { return &workloads.Alltoall{MessageBytes: size, Iterations: 1} }),
		}
	}
	return specs
}

// Ablations sweeps the design parameters of the application-aware selector
// that §6 of the paper discusses qualitatively: the cumulative-size threshold,
// the staleness window, the scaling factors and the counter-read overhead.
// Each sweep reports the median alltoall time and the fraction of traffic the
// selector sends with the Default routing. All points of all four sweeps run
// as one trial suite, so the whole ablation parallelizes across cores.
func Ablations(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()

	thresholds := []int64{0, 1 << 10, 4 << 10, 64 << 10, 1 << 20}
	stalenesses := []int{4, 16, 64, 256}
	scalings := [][2]float64{{0.6, 1.2}, {0.8, 1.6}, {0.9, 2.5}, {1.0, 1.0}}
	overheads := []int64{0, 300, 3_000, 30_000}

	var points []ablationPoint
	for _, th := range thresholds {
		cfg := core.DefaultConfig()
		cfg.ThresholdBytes = th
		points = append(points, ablationPoint{fmt.Sprintf("threshold/%d", th), cfg})
	}
	for _, st := range stalenesses {
		cfg := core.DefaultConfig()
		cfg.StalenessDecisions = st
		points = append(points, ablationPoint{fmt.Sprintf("staleness/%d", st), cfg})
	}
	for _, pair := range scalings {
		cfg := core.DefaultConfig()
		cfg.LambdaAdaptiveToBias = pair[0]
		cfg.SigmaAdaptiveToBias = pair[1]
		cfg.LambdaBiasToAdaptive = 1 / pair[0]
		cfg.SigmaBiasToAdaptive = 1 / pair[1]
		points = append(points, ablationPoint{fmt.Sprintf("scaling/%g-%g", pair[0], pair[1]), cfg})
	}
	for _, ov := range overheads {
		cfg := core.DefaultConfig()
		cfg.CounterReadOverheadCycles = ov
		points = append(points, ablationPoint{fmt.Sprintf("overhead/%d", ov), cfg})
	}

	results, err := runTrials(opts, ablationSpecs(opts, points))
	if err != nil {
		return nil, err
	}
	next := 0
	row := func() (median, frac float64, switches uint64) {
		m := results[next][0]
		next++
		return stats.Median(m.TimesFloat()), m.SelectorStats.DefaultTrafficFraction(), m.SelectorStats.Switches
	}

	threshold := trace.NewTable("Ablation: selector cumulative-size threshold (alltoall)",
		"threshold (bytes)", "median time (cycles)", "% default traffic", "switches")
	for _, th := range thresholds {
		med, frac, sw := row()
		threshold.AddRow(th, med, frac*100, sw)
	}

	staleness := trace.NewTable("Ablation: selector staleness window (alltoall)",
		"staleness (decisions)", "median time (cycles)", "% default traffic", "switches")
	for _, st := range stalenesses {
		med, frac, sw := row()
		staleness.AddRow(st, med, frac*100, sw)
	}

	scaling := trace.NewTable("Ablation: scaling factors lambda/sigma (alltoall)",
		"lambda_ad", "sigma_ad", "median time (cycles)", "% default traffic")
	for _, pair := range scalings {
		med, frac, _ := row()
		scaling.AddRow(pair[0], pair[1], med, frac*100)
	}

	overhead := trace.NewTable("Ablation: counter read overhead (alltoall)",
		"overhead (cycles)", "median time (cycles)", "% default traffic")
	for _, ov := range overheads {
		med, frac, _ := row()
		overhead.AddRow(ov, med, frac*100)
	}

	return []*trace.Table{threshold, staleness, scaling, overhead}, nil
}
