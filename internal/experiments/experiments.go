// Package experiments contains one runner per table and figure of the paper's
// evaluation, plus the model-validation experiment of §2.4 and ablation
// studies over the design choices of the application-aware selector. Each
// runner declares its simulated runs as harness.TrialSpecs — a topology and
// a typed body that places the job and the background noise and measures the
// routing setups through the facade — and the shared worker-pool executor
// (internal/harness) runs every body on a private system and fans the trials
// out across cores. Results are folded into trace.Tables in declaration
// order, so the tables are byte-identical regardless of Options.Parallel.
//
// The absolute sizes (node counts, message sizes, iteration counts) default to
// values that run on a laptop in seconds to minutes; the Options struct scales
// them up to paper-like sizes when desired. The claims being reproduced are
// the qualitative shapes (who wins, by what factor, where the crossovers are),
// not Piz Daint's absolute microseconds — see EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"dragonfly"
	"dragonfly/internal/core"
	"dragonfly/internal/harness"
	"dragonfly/internal/noise"
	"dragonfly/internal/routing"
	"dragonfly/internal/stats"
	"dragonfly/internal/topo"
	"dragonfly/internal/trace"
	"dragonfly/internal/workloads"
)

// RoutingSetup names a routing configuration under test; it is the facade's
// Routing type.
type RoutingSetup = dragonfly.Routing

// Options control the scale of every experiment.
type Options struct {
	// Seed seeds all random streams.
	Seed int64
	// Iterations is the number of samples collected per configuration.
	Iterations int
	// Nodes is the measured job size for the Figure 8/9/10 experiments.
	Nodes int
	// SizeScale multiplies every message size (1.0 = the defaults below,
	// which are already scaled down from the paper's sizes).
	SizeScale float64
	// NoiseNodes is the size of the background (interfering) job.
	NoiseNodes int
	// NoiseIntervalCycles is the mean inter-message gap of the background job;
	// smaller means more interference.
	NoiseIntervalCycles int64
	// FullAries builds full-size Aries groups (96 routers per group) instead
	// of the reduced default geometry.
	FullAries bool
	// Quick further shrinks sizes and iteration counts so the whole suite runs
	// in CI/tests within seconds.
	Quick bool
	// Parallel is the number of worker goroutines the trial harness uses:
	// 0 means GOMAXPROCS, 1 runs serially. For a fixed Seed the resulting
	// tables are byte-identical at every setting.
	Parallel int
	// Progress, if non-nil, receives one callback per finished trial.
	Progress func(harness.Progress)

	// ctx cancels in-flight trial suites; set it with WithContext.
	ctx context.Context
}

// DefaultOptions returns laptop-scale defaults.
func DefaultOptions() Options {
	return Options{
		Seed:                1,
		Iterations:          30,
		Nodes:               48,
		SizeScale:           1.0,
		NoiseNodes:          24,
		NoiseIntervalCycles: 12_000,
	}
}

// QuickOptions returns the reduced settings used by unit tests and smoke runs.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Iterations = 6
	o.Nodes = 16
	o.NoiseNodes = 8
	o.Quick = true
	return o
}

// WithContext returns a copy of the options whose experiment runs abort when
// ctx is cancelled (used by cmd/experiments -timeout).
func (o Options) WithContext(ctx context.Context) Options {
	o.ctx = ctx
	return o
}

// context returns the cancellation context of the run.
func (o Options) context() context.Context {
	if o.ctx != nil {
		return o.ctx
	}
	return context.Background()
}

// normalize fills in zero fields with defaults.
func (o Options) normalize() Options {
	d := DefaultOptions()
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.Iterations <= 0 {
		o.Iterations = d.Iterations
	}
	if o.Nodes <= 0 {
		o.Nodes = d.Nodes
	}
	if o.SizeScale <= 0 {
		o.SizeScale = d.SizeScale
	}
	if o.NoiseNodes <= 0 {
		o.NoiseNodes = d.NoiseNodes
	}
	if o.NoiseIntervalCycles <= 0 {
		o.NoiseIntervalCycles = d.NoiseIntervalCycles
	}
	return o
}

// iters returns the effective iteration count.
func (o Options) iters() int {
	if o.Quick && o.Iterations > 6 {
		return 6
	}
	return o.Iterations
}

// scaleSize applies the global size scale (and the Quick reduction).
func (o Options) scaleSize(bytes int64) int64 {
	v := int64(float64(bytes) * o.SizeScale)
	if o.Quick {
		v /= 4
	}
	if v < 8 {
		v = 8
	}
	return v
}

// pizDaintGeometry returns the topology used by the Piz Daint style
// experiments (6 groups, like the allocation of Figure 8).
func (o Options) pizDaintGeometry() topo.Config {
	if o.FullAries {
		return topo.PizDaintLikeConfig()
	}
	return topo.Config{
		Groups:                6,
		ChassisPerGroup:       2,
		BladesPerChassis:      8,
		NodesPerBlade:         2,
		GlobalLinksPerRouter:  4,
		IntraGroupLinkWidth:   3,
		IntraChassisLinkWidth: 1,
		GlobalLinkWidth:       2,
	}
}

// coriGeometry returns the topology used by the Cori style experiment of
// Figure 9 (5 groups).
func (o Options) coriGeometry() topo.Config {
	if o.FullAries {
		return topo.CoriLikeConfig()
	}
	cfg := o.pizDaintGeometry()
	cfg.Groups = 5
	return cfg
}

// noiseSpec maps the option scale onto a concrete background-job declaration.
func (o Options) noiseSpec(pattern noise.Pattern) *dragonfly.NoiseConfig {
	n := o.NoiseNodes
	if o.Quick && n > 8 {
		n = 8
	}
	return &dragonfly.NoiseConfig{
		Pattern:        pattern,
		Nodes:          n,
		IntervalCycles: o.NoiseIntervalCycles,
		MessageBytes:   o.scaleSize(noise.DefaultGeneratorConfig().MessageBytes),
	}
}

// runTrials executes trial specs through the worker-pool harness configured
// by the options (seed, parallelism, progress callback, cancellation) and
// returns the trials' values in spec order.
func runTrials[T any](o Options, specs []harness.TrialSpec[T]) ([]T, error) {
	x := harness.Executor{Parallel: o.Parallel, Seed: o.Seed, OnProgress: o.Progress}
	return harness.Run(o.context(), x, specs)
}

// stripedTrial returns the body of a trial that places a GroupStriped job of
// n nodes, starts the background job ns (none when nil) on the remaining
// nodes, and measures the workload under every setup with Job.Compare: one
// Result per setup, in the order setups returns them. Unlike
// System.Allocate, which fails with ErrJobTooLarge, the job is clamped to the
// free nodes: the -nodes flag applies one job size to several geometries, and
// trials on the smaller ones run machine-filling jobs rather than fail.
func (o Options) stripedTrial(n int, ns *dragonfly.NoiseConfig, setups func() []RoutingSetup,
	build func(ranks int) workloads.Workload) func(context.Context, *dragonfly.System) ([]dragonfly.Result, error) {

	return func(ctx context.Context, sys *dragonfly.System) ([]dragonfly.Result, error) {
		job, err := sys.Allocate(dragonfly.GroupStriped, min(n, sys.FreeNodes()))
		if err != nil {
			return nil, err
		}
		if ns != nil {
			sys.StartNoise(*ns)
		}
		rs := setups()
		return job.Compare(build(job.Size()), rs, dragonfly.RunOptions{Iterations: o.iters(), Context: ctx})
	}
}

// pairTrial returns the body of a trial that places two nodes of the class,
// starts uniform background noise, and measures a ping-pong of size bytes
// under every setup with Job.Compare, with host-side delays when hostNoise
// is set.
func (o Options) pairTrial(class topo.AllocationClass, size int64, setups func() []RoutingSetup,
	hostNoise bool) func(context.Context, *dragonfly.System) ([]dragonfly.Result, error) {

	return func(ctx context.Context, sys *dragonfly.System) ([]dragonfly.Result, error) {
		job, err := sys.AllocatePair(class)
		if err != nil {
			return nil, err
		}
		sys.StartNoise(*o.noiseSpec(noise.UniformRandom))
		run := dragonfly.RunOptions{Iterations: o.iters(), Context: ctx}
		if hostNoise {
			run.HostNoise = noise.MustNewHostNoise(noise.DefaultHostNoiseConfig()).Sampler()
		}
		return job.Compare(&workloads.PingPong{MessageBytes: size, Iterations: 1}, setups(), run)
	}
}

// namesOf returns the setup names of a factory's output, in order, so table
// folds iterate the same setups the specs measured without restating names.
func namesOf(setups []RoutingSetup) []string {
	names := make([]string, len(setups))
	for i, s := range setups {
		names[i] = s.Name
	}
	return names
}

// singleSetup adapts one routing setup constructor to the setup-factory
// signature of the trial helpers.
func singleSetup(build func() RoutingSetup) func() []RoutingSetup {
	return func() []RoutingSetup { return []RoutingSetup{build()} }
}

// DefaultSetup is the paper's "Default" configuration: ADAPTIVE_0 for
// everything, ADAPTIVE_1 for alltoall.
func DefaultSetup() RoutingSetup { return dragonfly.DefaultRouting() }

// HighBiasSetup is the static Adaptive-with-High-Bias configuration, under
// the short name the paper's result tables use.
func HighBiasSetup() RoutingSetup {
	s := dragonfly.StaticRouting(routing.AdaptiveHighBias)
	s.Name = "HighBias"
	return s
}

// AppAwareSetup is the paper's application-aware routing library, one selector
// per rank.
func AppAwareSetup(cfg core.Config) RoutingSetup { return dragonfly.AppAwareWith(cfg) }

// StandardSetups returns the three configurations compared in Figures 8-10,
// in the order Default, HighBias, AppAware; Job.Compare returns their Results
// in this order. It has the setup-factory signature of the trial helpers, so
// they can take it directly.
func StandardSetups() []RoutingSetup {
	return []RoutingSetup{DefaultSetup(), HighBiasSetup(), AppAwareSetup(core.DefaultConfig())}
}

// Runner is an experiment entry point.
type Runner func(Options) ([]*trace.Table, error)

// Registry maps experiment ids (as used by cmd/experiments -exp) to runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig3":           Figure3Allocations,
		"tab1":           Table1IdleFlits,
		"fig4":           Figure4OnNodeAlltoall,
		"fig5":           Figure5QCD,
		"fig7":           Figure7RoutingPingPong,
		"model":          ModelValidation,
		"fig8":           Figure8Microbenchmarks,
		"fig9":           Figure9MicrobenchmarksCori,
		"fig10":          Figure10Applications,
		"ablations":      Ablations,
		"noisesweep":     NoiseSweep,
		"hysteresis":     HysteresisStudy,
		"sched":          SchedulerInterference,
		"cotenant":       CoTenancy,
		"baselines":      BaselineComparison,
		"collalgos":      CollectiveAlgorithms,
		"telemetry":      TelemetryCongestion,
		"biassweep":      BiasSweep,
		"fullmachine":    FullMachine,
		"openstream":     OpenStream,
		"counterfactual": CounterfactualRouting,
	}
}

// Names returns the sorted experiment ids.
func Names() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for k := range reg {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given id.
func Run(id string, opts Options) ([]*trace.Table, error) {
	r, ok := Registry()[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, Names())
	}
	return r(opts)
}

// summaryRow appends the usual distribution columns for a label and sample set.
func summaryRow(t *trace.Table, label string, xs []float64, extra ...any) {
	s := stats.Summarize(xs)
	cells := append([]any{label, s.Median, s.Mean, s.Q1, s.Q3, s.IQR, s.QCD, s.Outliers}, extra...)
	t.AddRow(cells...)
}

// summaryColumns returns the matching column headers for summaryRow.
func summaryColumns(first string, extra ...string) []string {
	cols := []string{first, "median", "mean", "q1", "q3", "iqr", "qcd", "outliers"}
	return append(cols, extra...)
}
