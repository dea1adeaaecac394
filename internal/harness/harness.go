// Package harness is the parallel trial-execution subsystem behind the
// experiments layer. A TrialSpec names one simulated run, says how to build
// its system (topology geometry, routing parameters, decision trace) and
// carries the typed body that runs on it; a deterministic seed-derivation
// scheme gives every trial its own private random streams; and Run fans
// trials out across GOMAXPROCS goroutines with context cancellation, panic
// capture and progress callbacks, returning the bodies' values in spec order
// so that a parallel run produces byte-identical tables to a serial run for
// the same seed.
//
// Each trial runs on a complete private system (engine, fabric, RNGs) seeded
// only from (Executor.Seed, TrialSpec.ID), so trials share no mutable state
// and their results cannot depend on scheduling order or worker count.
package harness

import (
	"context"

	"dragonfly"
	"dragonfly/internal/routing"
	"dragonfly/internal/topo"
)

// TrialSpec declares one simulated run: how to build the system and the body
// that measures on it. The zero values of the system fields select the
// library defaults.
type TrialSpec[T any] struct {
	// ID uniquely names the trial within one Run call. The trial's random
	// streams are derived from (Executor.Seed, ID), so renaming a trial
	// reseeds it while reordering or parallelizing the suite does not.
	ID string

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

	// Body runs the trial on its private System (seeded with the trial seed,
	// sys.Seed()) and returns the trial's value.
	Body func(ctx context.Context, sys *dragonfly.System) (T, error)
}
