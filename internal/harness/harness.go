// Package harness is the parallel trial-execution subsystem behind the
// experiments layer. A TrialSpec declaratively describes one simulated run
// (topology geometry, job allocation, routing setups under test, workload,
// background noise); a deterministic seed-derivation scheme gives every trial
// its own private random streams; and a worker-pool Executor fans trials out
// across GOMAXPROCS goroutines with context cancellation, panic capture and
// progress callbacks, delivering results in spec order so that a parallel run
// produces byte-identical tables to a serial run for the same seed.
//
// Each trial builds a complete private system (engine, fabric, RNGs) seeded
// only from (Executor.Seed, TrialSpec.ID), so trials share no mutable state
// and their results cannot depend on scheduling order or worker count.
package harness

import (
	"context"

	"dragonfly"
	"dragonfly/internal/alloc"
	"dragonfly/internal/core"
	"dragonfly/internal/counters"
	"dragonfly/internal/network"
	"dragonfly/internal/routing"
	"dragonfly/internal/topo"
	"dragonfly/internal/workloads"
)

// DefaultHorizon is the deadline handed to background noise generators;
// trials complete far before it.
const DefaultHorizon = dragonfly.DefaultHorizon

// RoutingSetup names a routing configuration under test. It is the facade's
// Routing type: the standard configurations come from dragonfly.DefaultRouting,
// dragonfly.StaticRouting and dragonfly.AppAware.
type RoutingSetup = dragonfly.Routing

// Measurement is the result of measuring one routing setup on one workload.
type Measurement struct {
	// Times holds one execution time (cycles) per iteration.
	Times []float64
	// Deltas holds the per-iteration NIC counter deltas summed over the job.
	Deltas []counters.NIC
	// SelectorStats aggregates selector statistics (zero for static setups).
	SelectorStats core.Stats
}

// Measurements maps setup names to their measurement; it is the value the
// default (declarative) trial body returns.
type Measurements = map[string]*Measurement

// NoiseSpec declares the background (interfering) job of a trial. All values
// are concrete — callers apply their own scaling before declaring the spec —
// and the generator seed is derived from the trial seed. It is the facade's
// NoiseConfig type.
type NoiseSpec = dragonfly.NoiseConfig

// TrialSpec declares one simulated run: how to build the system and what to
// measure on it. The zero values of the system fields select the library
// defaults.
//
// The common case is fully declarative: set the geometry, an allocation
// (JobNodes+Placement, PairClass, or FixedNodes), optional Noise and
// HostNoise, the Setups under test, a Workload factory and the iteration
// count, and the executor runs the standard allocate/noise/measure sequence.
// Experiments that need bespoke instrumentation (telemetry collectors, batch
// schedulers, raw engine control) set Body instead, which replaces the
// declarative path entirely and receives the constructed Env.
type TrialSpec struct {
	// ID uniquely names the trial within one Executor.Run call. The trial's
	// random streams are derived from (Executor.Seed, ID), so renaming a
	// trial reseeds it while reordering or parallelizing the suite does not.
	ID string

	// Meta is an opaque payload carried through to the Result, for use by the
	// caller's aggregation code (e.g. the table row label).
	Meta any

	// Geometry is the Dragonfly topology to build.
	Geometry topo.Config
	// DecisionTraceK enables the routing decision recorder for the trial's
	// system (dragonfly.WithDecisionTrace): 0 leaves tracing off, k > 0
	// records each adaptive decision with its top-k candidate costs. The
	// trace is part of the construction key, so traced and untraced trials
	// never share a pooled system.
	DecisionTraceK int
	// RoutingParams overrides routing.DefaultParams() when non-nil.
	RoutingParams *routing.Params
	// Network overrides network.DefaultConfig() when non-nil.
	Network *network.Config

	// FixedNodes pins the job to explicit nodes (repeats allowed: several
	// ranks on one node). Takes precedence over PairAlloc and JobNodes.
	FixedNodes []topo.NodeID
	// PairAlloc allocates a two-node job of PairClass instead of JobNodes.
	PairAlloc bool
	// PairClass is the topological distance of the pair when PairAlloc is set.
	PairClass topo.AllocationClass
	// JobNodes is the requested job size (capped at the machine size).
	JobNodes int
	// Placement is the allocation policy for JobNodes-style jobs.
	Placement alloc.Policy
	// Noise, if non-nil, starts a background job before the measurement.
	Noise *NoiseSpec
	// Setups builds the routing configurations under test. It is a factory —
	// called once inside the trial — because selector-backed setups carry
	// per-trial mutable state that must not be shared across trials.
	Setups func() []RoutingSetup
	// HostNoise, if non-nil, builds the host-side delay sampler for the trial.
	HostNoise func() func(rank int) int64
	// Workload builds the measured workload for the allocated rank count.
	Workload func(ranks int) workloads.Workload
	// Iterations is the number of measured repetitions (minimum 1).
	Iterations int

	// Body replaces the declarative measurement when non-nil. It runs on the
	// trial's private Env and returns the trial's result value.
	Body func(ctx context.Context, env *Env) (any, error)
}
