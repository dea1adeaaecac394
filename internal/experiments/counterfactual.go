package experiments

import (
	"context"
	"fmt"

	"dragonfly"
	"dragonfly/internal/core"
	"dragonfly/internal/counterfactual"
	"dragonfly/internal/harness"
	"dragonfly/internal/msglog"
	"dragonfly/internal/noise"
	"dragonfly/internal/perfmodel"
	"dragonfly/internal/routing"
	"dragonfly/internal/trace"
	"dragonfly/internal/workloads"
)

// cfTrial is the value a counterfactual trial body returns: the per-mode
// replay outcomes, the trace bookkeeping, and the calibration fit.
type cfTrial struct {
	Outcomes []counterfactual.ModeOutcome
	Recorded uint64
	Dropped  uint64
	Fit      perfmodel.Fit
}

// cfModes are the bias modes every recorded decision is re-scored under.
func cfModes() []routing.Mode {
	return []routing.Mode{
		routing.Adaptive,
		routing.IncreasinglyMinimalBias,
		routing.AdaptiveLowBias,
		routing.AdaptiveHighBias,
	}
}

// CounterfactualRouting quantifies the paper's central claim per decision
// rather than per run. Each trial runs a noisy alltoall under one routing
// setup (the paper's Default, then the application-aware library) with the
// decision recorder on, then (1) replays every recorded adaptive decision
// under each bias mode and reports how much raw congestion cost the live
// policy avoided relative to that mode's counterfactual pick, and (2) fits
// the Eq. 2 performance model (L, s) against the captured message log and
// reports MAPE and Pearson-r — the trace → replay → calibrate loop. The
// output is byte-identical for a fixed seed at every -parallel setting,
// which the golden hash and the determinism suite pin.
func CounterfactualRouting(opts Options) ([]*trace.Table, error) {
	opts = opts.normalize()
	size := opts.scaleSize(4 << 10)
	jobNodes := opts.Nodes
	// The small rung has 64 nodes; leave room for the noise generator.
	if jobNodes > 16 {
		jobNodes = 16
	}
	iters := opts.iters()
	if iters > 6 {
		iters = 6
	}

	setups := []struct {
		name  string
		build func() RoutingSetup
	}{
		{"Default", DefaultSetup},
		{"AppAware", func() RoutingSetup { return AppAwareSetup(core.DefaultConfig()) }},
	}

	specs := make([]harness.TrialSpec, len(setups))
	for i, setup := range setups {
		build := setup.build
		specs[i] = harness.TrialSpec{
			// The trial seed derives from the ID, so the IDs keep the
			// "exact" segment they had when the sweep also ran a second
			// UGAL model: renaming them would reseed every trial.
			ID:             "counterfactual/exact/" + setup.name,
			Geometry:       dragonfly.Small,
			DecisionTraceK: routing.DefaultDecisionCandidates,
			Body: func(ctx context.Context, sys *dragonfly.System) (any, error) {
				return runCounterfactualTrial(ctx, sys, build(), size, jobNodes, iters,
					opts.noiseSpec(noise.UniformRandom))
			},
		}
	}

	results, err := opts.runTrials(specs)
	if err != nil {
		return nil, err
	}

	decisions := trace.NewTable(
		fmt.Sprintf("Counterfactual decision scoring: noisy alltoall %d B, top-%d candidates",
			size, routing.DefaultDecisionCandidates),
		"setup", "scored mode", "decisions", "switched %", "cf minimal %",
		"avoided/decision", "avoided total")
	calibration := trace.NewTable(
		"Eq. 2 calibration against the captured message log",
		"setup", "samples", "fitted L", "fitted s", "MAPE %", "Pearson r",
		"decisions kept", "decisions dropped")
	for i, r := range results {
		t, ok := r.Value.(cfTrial)
		if !ok {
			return nil, fmt.Errorf("experiments: trial %q returned %T, want cfTrial", r.Spec.ID, r.Value)
		}
		name := setups[i].name
		for _, o := range t.Outcomes {
			decisions.AddRow(name, o.Mode.Name(), o.Decisions,
				o.SwitchedFraction()*100, o.MinimalFraction()*100,
				o.MeanAvoided(), o.AvoidedCycles())
		}
		calibration.AddRow(name, t.Fit.Samples,
			t.Fit.Params.LatencyCycles, t.Fit.Params.StallRatio,
			t.Fit.MAPE*100, t.Fit.PearsonR, t.Recorded-t.Dropped, t.Dropped)
	}
	return []*trace.Table{decisions, calibration}, nil
}

// runCounterfactualTrial is the trial body. It runs two phases on the same
// allocated job: first a quiet multi-size sweep with a message log attached —
// the calibration data, since Eq. 2 models uncongested transmission and needs
// size variation to separate L from s — then, after resetting the decision
// rings, the noisy measured alltoall whose recorded decisions get scored.
func runCounterfactualTrial(ctx context.Context, sys *dragonfly.System, setup RoutingSetup,
	size int64, jobNodes, iters int, noiseSpec *dragonfly.NoiseConfig) (any, error) {

	tr := sys.DecisionTrace()
	if tr == nil {
		return nil, fmt.Errorf("counterfactual trial needs DecisionTraceK > 0 in its spec")
	}
	job, err := sys.Allocate(dragonfly.GroupStriped, jobNodes)
	if err != nil {
		return nil, err
	}

	log := msglog.NewLog()
	log.Attach(sys.Fabric())
	for _, s := range []int64{size / 4, size / 2, size, 2 * size, 4 * size} {
		// Ping-pong serializes the transfers, so each logged record observes
		// an uncongested network — the regime Eq. 2 actually models.
		w := &workloads.PingPong{MessageBytes: s, Iterations: 2}
		if _, err := job.Run(w, dragonfly.RunOptions{Routing: setup, Context: ctx}); err != nil {
			log.Detach(sys.Fabric())
			return nil, err
		}
	}
	log.Detach(sys.Fabric())
	samples := counterfactual.CalibrationSamples(log.Records())

	// The quiet phase's decisions are calibration traffic, not the subject of
	// the counterfactual question; score only the noisy measured phase.
	tr.Reset()
	if noiseSpec != nil {
		sys.StartNoise(*noiseSpec)
	}
	w := &workloads.Alltoall{MessageBytes: size, Iterations: 1}
	if _, err := job.Run(w, dragonfly.RunOptions{Routing: setup, Iterations: iters, Context: ctx}); err != nil {
		return nil, err
	}

	outcomes, err := counterfactual.Score(tr, routing.DefaultParams(), cfModes())
	if err != nil {
		return nil, err
	}
	out := cfTrial{Outcomes: outcomes, Recorded: tr.Recorded(), Dropped: tr.Dropped()}
	if len(samples) >= 2 {
		fit, err := perfmodel.Calibrate(samples)
		if err != nil {
			return nil, err
		}
		out.Fit = fit
	}
	return out, nil
}
