package dragonfly_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dragonfly"
	"dragonfly/internal/workloads"
)

// concurrentSystem builds the standard two-job test fixture: an alltoall
// victim and a halo3d neighbor on one four-group machine.
func concurrentSystem(t *testing.T, seed int64) (*dragonfly.System, []dragonfly.JobRun) {
	t.Helper()
	sys, err := dragonfly.New(
		dragonfly.WithGeometry(dragonfly.SmallGeometry(4)),
		dragonfly.WithSeed(seed),
	)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := sys.Allocate(dragonfly.GroupStriped, 8)
	if err != nil {
		t.Fatal(err)
	}
	neighbor, err := sys.Allocate(dragonfly.GroupStriped, 8)
	if err != nil {
		t.Fatal(err)
	}
	return sys, []dragonfly.JobRun{
		{
			Job:      victim,
			Workload: &workloads.Alltoall{MessageBytes: 4 << 10, Iterations: 1},
			Options: dragonfly.RunOptions{
				Routing:    dragonfly.StaticRouting(dragonfly.Adaptive),
				Iterations: 3,
			},
		},
		{
			Job:      neighbor,
			Workload: workloads.NewHalo3D(8, 128, 2),
			Options:  dragonfly.RunOptions{Iterations: 2},
		},
	}
}

// TestRunConcurrentDeterministic is the concurrency half of the determinism
// contract: the same seed must produce byte-identical per-job Results, both
// across two identically built systems and across Reset repeats of one
// system.
func TestRunConcurrentDeterministic(t *testing.T) {
	sysA, runsA := concurrentSystem(t, 11)
	resA, err := sysA.RunConcurrent(runsA)
	if err != nil {
		t.Fatal(err)
	}
	sysB, runsB := concurrentSystem(t, 11)
	resB, err := sysB.RunConcurrent(runsB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Fatalf("two identically-built systems measured differently:\n%+v\n%+v", resA, resB)
	}

	// Reset and re-run on the same system: still identical.
	if err := sysA.Reset(11); err != nil {
		t.Fatal(err)
	}
	victim, err := sysA.Allocate(dragonfly.GroupStriped, 8)
	if err != nil {
		t.Fatal(err)
	}
	neighbor, err := sysA.Allocate(dragonfly.GroupStriped, 8)
	if err != nil {
		t.Fatal(err)
	}
	runsA[0].Job, runsA[1].Job = victim, neighbor
	resC, err := sysA.RunConcurrent(runsA)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA, resC) {
		t.Fatalf("Reset re-run measured differently:\n%+v\n%+v", resA, resC)
	}
}

// TestRunConcurrentSingleMatchesJobRun pins that Job.Run is the single-job
// special case of RunConcurrent: the two entry points produce identical
// Results on identically built systems (the golden-table hashes pin the same
// equivalence at experiment scale).
func TestRunConcurrentSingleMatchesJobRun(t *testing.T) {
	w := &workloads.Alltoall{MessageBytes: 4 << 10, Iterations: 1}
	opts := dragonfly.RunOptions{
		Routing:    dragonfly.StaticRouting(dragonfly.AdaptiveHighBias),
		Iterations: 3,
	}
	build := func() (*dragonfly.System, *dragonfly.Job) {
		t.Helper()
		sys, err := dragonfly.New(dragonfly.WithGeometry(dragonfly.SmallGeometry(2)), dragonfly.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		sys.StartNoise(dragonfly.NoiseConfig{Pattern: dragonfly.NoiseUniform, Nodes: 4})
		job, err := sys.Allocate(dragonfly.GroupStriped, 4)
		if err != nil {
			t.Fatal(err)
		}
		return sys, job
	}
	_, jobA := build()
	direct, err := jobA.Run(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	sysB, jobB := build()
	via, err := sysB.RunConcurrent([]dragonfly.JobRun{{Job: jobB, Workload: w, Options: opts}})
	if err != nil {
		t.Fatal(err)
	}
	if len(via) != 1 {
		t.Fatalf("got %d results, want 1", len(via))
	}
	if !reflect.DeepEqual(direct, via[0]) {
		t.Fatalf("Job.Run and single-job RunConcurrent disagree:\n%+v\n%+v", direct, via[0])
	}
}

// TestRunConcurrentIsolation checks that the per-job measurements are
// correctly isolated even though the jobs finish at different simulated
// times: each job reports its own iteration count, its own (positive)
// traffic, and the victim measurably slows down compared to running alone.
func TestRunConcurrentIsolation(t *testing.T) {
	sysAlone, runsAlone := concurrentSystem(t, 3)
	alone, err := sysAlone.RunConcurrent(runsAlone[:1])
	if err != nil {
		t.Fatal(err)
	}
	sys, runs := concurrentSystem(t, 3)
	res, err := sys.RunConcurrent(runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	if got := len(res[0].Times); got != 3 {
		t.Fatalf("victim measured %d iterations, want 3", got)
	}
	if got := len(res[1].Times); got != 2 {
		t.Fatalf("neighbor measured %d iterations, want 2", got)
	}
	for i, r := range res {
		if r.Counters.RequestPackets == 0 {
			t.Fatalf("job %d moved no packets", i)
		}
		if r.Time() <= 0 {
			t.Fatalf("job %d took no simulated time", i)
		}
	}
	// The alltoall victim's node-disjoint NIC counters are its own: the same
	// packet count as alone, interference or not.
	if res[0].Counters.RequestPackets != alone[0].Counters.RequestPackets {
		t.Fatalf("victim packet count changed under co-tenancy: %d vs %d alone",
			res[0].Counters.RequestPackets, alone[0].Counters.RequestPackets)
	}
	// And a real neighbor job must cost the victim simulated time.
	if res[0].Time() <= alone[0].Time() {
		t.Fatalf("victim did not slow down next to a real neighbor: %d vs %d alone",
			res[0].Time(), alone[0].Time())
	}
}

// TestRunConcurrentValidation covers the argument contract.
func TestRunConcurrentValidation(t *testing.T) {
	sys, runs := concurrentSystem(t, 2)
	other, otherRuns := concurrentSystem(t, 2)

	if _, err := sys.RunConcurrent(nil); err == nil {
		t.Fatal("empty run list accepted")
	}
	bad := []dragonfly.JobRun{runs[0], {Job: nil, Workload: runs[1].Workload}}
	if _, err := sys.RunConcurrent(bad); err == nil {
		t.Fatal("nil job accepted")
	}
	bad = []dragonfly.JobRun{runs[0], otherRuns[1]}
	if _, err := sys.RunConcurrent(bad); err == nil || !strings.Contains(err.Error(), "different system") {
		t.Fatalf("foreign job: err = %v", err)
	}
	bad = []dragonfly.JobRun{runs[0], {Job: runs[1].Job}}
	if _, err := sys.RunConcurrent(bad); err == nil || !strings.Contains(err.Error(), "nil workload") {
		t.Fatalf("nil workload: err = %v", err)
	}
	bad = []dragonfly.JobRun{runs[0], {Job: runs[0].Job, Workload: runs[1].Workload}}
	if _, err := sys.RunConcurrent(bad); err == nil || !strings.Contains(err.Error(), "more than once") {
		t.Fatalf("duplicate job: err = %v", err)
	}
	if err := other.Reset(4); err != nil {
		t.Fatal(err)
	}
	if _, err := other.RunConcurrent(otherRuns); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale job: err = %v", err)
	}
}

// TestRunConcurrentContextCancellation: a pre-cancelled per-job context stops
// the whole run before the first iteration.
func TestRunConcurrentContextCancellation(t *testing.T) {
	sys, runs := concurrentSystem(t, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs[1].Options.Context = ctx
	res, err := sys.RunConcurrent(runs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if len(res) != 2 {
		t.Fatalf("cancelled run returned %d partial results, want 2", len(res))
	}
	if len(res[0].Times) != 0 {
		t.Fatal("cancelled run still measured iterations")
	}
}
