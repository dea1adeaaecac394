package harness

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"dragonfly"
	"dragonfly/internal/alloc"
	"dragonfly/internal/mpi"
	"dragonfly/internal/noise"
	"dragonfly/internal/routing"
	"dragonfly/internal/topo"
	"dragonfly/internal/workloads"
)

// measureSpec declares a small real measurement: a 4-node pingpong job with
// background noise under two static routing modes.
func measureSpec(id string) TrialSpec {
	return TrialSpec{
		ID:        id,
		Geometry:  testGeometry(),
		Placement: alloc.GroupStriped,
		JobNodes:  4,
		Noise:     &dragonfly.NoiseConfig{Pattern: noise.UniformRandom, Nodes: 4, IntervalCycles: 20_000},
		Setups: func() []dragonfly.Routing {
			return []dragonfly.Routing{
				{Name: "Adaptive", Provider: func(int) mpi.RoutingProvider { return mpi.StaticRouting{Mode: routing.Adaptive} }},
				{Name: "HighBias", Provider: func(int) mpi.RoutingProvider { return mpi.StaticRouting{Mode: routing.AdaptiveHighBias} }},
			}
		},
		Workload: func(ranks int) workloads.Workload {
			return &workloads.PingPong{MessageBytes: 4 << 10, Iterations: 1}
		},
		Iterations: 3,
	}
}

// setupResults extracts the declarative value of a trial.
func setupResults(t *testing.T, r Result) []dragonfly.Result {
	t.Helper()
	res, ok := r.Value.([]dragonfly.Result)
	if !ok {
		t.Fatalf("trial %s returned %T, want []dragonfly.Result", r.Spec.ID, r.Value)
	}
	return res
}

func TestDeclarativeMeasurement(t *testing.T) {
	rs, err := (&Executor{Parallel: 1, Seed: 5}).Run(context.Background(), []TrialSpec{measureSpec("m0")})
	if err != nil {
		t.Fatal(err)
	}
	res := setupResults(t, rs[0])
	if len(res) != 2 {
		t.Fatalf("declarative trial returned %d results, want one per setup (2)", len(res))
	}
	for i, name := range []string{"Adaptive", "HighBias"} {
		m := res[i]
		if m.Setup != name {
			t.Fatalf("result %d is setup %q, want %q (setup order)", i, m.Setup, name)
		}
		if len(m.Times) != 3 || len(m.Deltas) != 3 {
			t.Fatalf("setup %q has %d times / %d deltas, want 3", name, len(m.Times), len(m.Deltas))
		}
		for i, v := range m.Times {
			if v <= 0 {
				t.Fatalf("setup %q iteration %d has non-positive time %v", name, i, v)
			}
		}
	}
}

// TestMeasurementDeterministicAcrossWorkers is the core harness guarantee:
// running the same suite of real simulations with 1 worker and with 8 workers
// yields identical samples, because every trial's randomness derives only
// from (suite seed, trial id).
func TestMeasurementDeterministicAcrossWorkers(t *testing.T) {
	var specs []TrialSpec
	for i := 0; i < 6; i++ {
		specs = append(specs, measureSpec(fmt.Sprintf("m%d", i)))
	}
	collect := func(parallel int) [][]dragonfly.Result {
		rs, err := (&Executor{Parallel: parallel, Seed: 11}).Run(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]dragonfly.Result, len(rs))
		for i, r := range rs {
			out[i] = setupResults(t, r)
		}
		return out
	}
	serial := collect(1)
	parallel := collect(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel measurement differs from serial measurement for the same seed")
	}
	// And the derived seeds must differ across trials (fresh systems).
	s0, s1 := TrialSeed(11, "m0"), TrialSeed(11, "m1")
	if s0 == s1 {
		t.Fatal("distinct trials share a seed")
	}
}

func TestPairAndFixedAllocations(t *testing.T) {
	pair := measureSpec("pair")
	pair.PairAlloc = true
	pair.PairClass = topo.AllocInterGroups

	// Eight ranks pinned onto node 0 (the Figure-4 style allocation).
	fixed := measureSpec("fixed")
	fixed.FixedNodes = make([]topo.NodeID, 8)
	fixed.Noise = nil

	rs, err := (&Executor{Parallel: 2, Seed: 3}).Run(context.Background(), []TrialSpec{pair, fixed})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if n := len(setupResults(t, r)[0].Times); n != 3 {
			t.Fatalf("trial %d measured %d iterations, want 3", i, n)
		}
	}
	// The fixed allocation is all on one node, so no NIC packets moved.
	for _, d := range setupResults(t, rs[1])[0].Deltas {
		if d.RequestPackets != 0 {
			t.Fatalf("on-node job sent %d NIC packets, want 0", d.RequestPackets)
		}
	}
}

// TestDeclarativeJobClampsToMachine pins the documented clamp of
// TrialSpec.JobNodes: a request larger than the machine silently becomes a
// machine-filling job (suite-level -nodes flags apply one size to several
// geometries), in deliberate contrast to dragonfly.System.Allocate, which
// fails such requests with ErrJobTooLarge. With Noise declared, the job is
// placed first and the best-effort background job finds no room; when a body
// places a background job first, the clamp fills the remaining free nodes.
func TestDeclarativeJobClampsToMachine(t *testing.T) {
	machine := testGeometry().Nodes()
	var ranks []int
	clamped := func(id string, noisy bool) TrialSpec {
		spec := measureSpec(id)
		spec.JobNodes = machine * 10
		if !noisy {
			spec.Noise = nil
		}
		spec.Iterations = 1
		spec.Workload = func(n int) workloads.Workload {
			ranks = append(ranks, n)
			return &workloads.Barrier{Iterations: 1}
		}
		return spec
	}
	var free int
	preloaded := clamped("clamp/preloaded", false)
	preloaded.Body = func(ctx context.Context, sys *dragonfly.System) (any, error) {
		if sys.StartNoise(dragonfly.NoiseConfig{Pattern: noise.UniformRandom, Nodes: 4}) == nil {
			return nil, fmt.Errorf("no room for the background job on a fresh machine")
		}
		free = sys.FreeNodes()
		if _, err := sys.Allocate(alloc.GroupStriped, machine*10); err == nil {
			return nil, fmt.Errorf("System.Allocate past the free nodes succeeded")
		}
		return runDeclarative(ctx, preloaded, sys)
	}
	specs := []TrialSpec{clamped("clamp/quiet", false), clamped("clamp/noisy", true), preloaded}
	if _, err := (&Executor{Parallel: 1, Seed: 1}).Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if want := []int{machine, machine, free}; !reflect.DeepEqual(ranks, want) {
		t.Fatalf("clamped jobs ran %v ranks, want %v (machine %d, free after noise %d)", ranks, want, machine, free)
	}
}
