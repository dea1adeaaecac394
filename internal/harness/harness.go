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
	"fmt"

	"dragonfly"
	"dragonfly/internal/alloc"
	"dragonfly/internal/routing"
	"dragonfly/internal/topo"
	"dragonfly/internal/workloads"
)

// TrialSpec declares one simulated run: how to build the system and what to
// measure on it. The zero values of the system fields select the library
// defaults.
//
// The common case is fully declarative: set the geometry, an allocation
// (JobNodes+Placement, PairClass, or FixedNodes), optional Noise and
// HostNoise, the Setups under test, a Workload factory and the iteration
// count, and the executor runs the standard allocate/noise/measure sequence
// (runDeclarative), whose value is the []dragonfly.Result of Job.Compare.
// Experiments that need bespoke instrumentation (telemetry collectors, batch
// schedulers, raw engine control) set Body instead, which replaces the
// declarative path entirely and receives the trial's System.
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

	// FixedNodes pins the job to explicit nodes (repeats allowed: several
	// ranks on one node). Takes precedence over PairAlloc and JobNodes.
	FixedNodes []topo.NodeID
	// PairAlloc allocates a two-node job of PairClass instead of JobNodes.
	PairAlloc bool
	// PairClass is the topological distance of the pair when PairAlloc is set.
	PairClass topo.AllocationClass
	// JobNodes is the requested job size. Unlike System.Allocate, which fails
	// with ErrJobTooLarge, the request is clamped to the free nodes: suite-level
	// flags like -nodes apply one job size to several geometries, and trials
	// on the smaller geometries run machine-filling jobs rather than fail.
	JobNodes int
	// Placement is the allocation policy for JobNodes-style jobs.
	Placement alloc.Policy
	// Noise, if non-nil, starts a background job after the measured job is
	// placed, on the remaining nodes.
	Noise *dragonfly.NoiseConfig
	// Setups builds the routing configurations under test. It is a factory —
	// called once inside the trial — because selector-backed setups carry
	// per-trial mutable state that must not be shared across trials.
	Setups func() []dragonfly.Routing
	// HostNoise, if non-nil, builds the host-side delay sampler for the trial.
	HostNoise func() func(rank int) int64
	// Workload builds the measured workload for the allocated rank count.
	Workload func(ranks int) workloads.Workload
	// Iterations is the number of measured repetitions (minimum 1).
	Iterations int

	// Body replaces the declarative measurement when non-nil. It runs on the
	// trial's private System (seeded with the trial seed, sys.Seed()) and
	// returns the trial's result value.
	Body func(ctx context.Context, sys *dragonfly.System) (any, error)
}

// runDeclarative is the default trial body: place the job as declared, start
// the background noise, and measure every setup on the workload with
// Job.Compare, alternating the setups on successive iterations.
func runDeclarative(ctx context.Context, spec TrialSpec, sys *dragonfly.System) ([]dragonfly.Result, error) {
	if spec.Workload == nil || spec.Setups == nil {
		return nil, fmt.Errorf("declarative spec incomplete: need Workload and Setups (or a Body)")
	}
	var job *dragonfly.Job
	var err error
	switch {
	case len(spec.FixedNodes) > 0:
		job = sys.JobFromNodes(spec.FixedNodes)
	case spec.PairAlloc:
		job, err = sys.AllocatePair(spec.PairClass)
	default:
		job, err = sys.Allocate(spec.Placement, min(spec.JobNodes, sys.FreeNodes()))
	}
	if err != nil {
		return nil, err
	}
	if spec.Noise != nil {
		sys.StartNoise(*spec.Noise)
	}
	var hostNoise func(int) int64
	if spec.HostNoise != nil {
		hostNoise = spec.HostNoise()
	}
	setups := spec.Setups()
	return job.Compare(spec.Workload(job.Size()), setups, dragonfly.RunOptions{
		Iterations: spec.Iterations,
		HostNoise:  hostNoise,
		Context:    ctx,
	})
}
