package harness

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"dragonfly/internal/mpi"
	"dragonfly/internal/testutil"
	"dragonfly/internal/workloads"
)

// leakSpec is the shared measurement spec with an explicit iteration count:
// a real allocate → measure trial whose rank coroutines the leak tests track.
func leakSpec(id string, iterations int) TrialSpec {
	spec := measureSpec(id)
	spec.Iterations = iterations
	return spec
}

// TestExecutorNoGoroutineLeak pins the executor's goroutine accounting: after
// a parallel suite completes, the worker goroutines and every rank coroutine
// of every trial are gone.
func TestExecutorNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	var specs []TrialSpec
	for _, id := range []string{"a", "b", "c", "d"} {
		specs = append(specs, leakSpec("leak/"+id, 2))
	}
	if _, err := (&Executor{Parallel: 4, Seed: 9}).Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	testutil.WaitGoroutines(t, base)
}

// TestExecutorCancelNoGoroutineLeak is the ctx-cancellation half: a suite
// cancelled while trials are mid-simulation must release the in-flight rank
// coroutines (MeasureSetups shuts its scheduler down), not leave them parked
// for the life of the process.
func TestExecutorCancelNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var specs []TrialSpec
	for _, id := range []string{"a", "b", "c", "d", "e", "f"} {
		spec := leakSpec("leak-cancel/"+id, 200)
		// Cancel from inside the first trial body, so later trials are
		// skipped and in-flight measurements abort mid-iteration.
		inner := spec
		spec.Body = func(c context.Context, e *Env) (any, error) {
			cancel()
			job, err := e.AllocateJob(inner.Placement, inner.JobNodes)
			if err != nil {
				return nil, err
			}
			return e.MeasureSetups(c, job, inner.Setups(), nil,
				inner.Workload(job.Size()), inner.Iterations)
		}
		specs = append(specs, spec)
	}
	_, err := (&Executor{Parallel: 3, Seed: 9}).Run(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled suite returned %v, want context.Canceled", err)
	}
	testutil.WaitGoroutines(t, base)
}

// TestExecutorRankPanicFailsTrial: a rank program that panics mid-measurement
// fails its own trial, not the process. The panic reaches the trial's
// goroutine through the scheduler, the executor records it as the trial's
// error, the trials before it complete with their measurements, and no rank
// of the panicked trial is left parked.
func TestExecutorRankPanicFailsTrial(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := leakSpec("rank-panic/boom", 3)
	boom.Workload = func(ranks int) workloads.Workload {
		return workloads.Func{WorkloadName: "boom", Body: func(r *mpi.Rank) {
			if r.Rank() != 1 {
				r.Recv(1)
				return
			}
			r.Compute(100)
			panic("rank program blew up")
		}}
	}
	specs := []TrialSpec{leakSpec("rank-panic/ok-0", 2), leakSpec("rank-panic/ok-1", 2), boom}
	results, err := (&Executor{Parallel: 1, Seed: 9}).Run(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), "rank program blew up") {
		t.Fatalf("suite error = %v, want the rank panic", err)
	}
	for _, res := range results[:2] {
		if res.Err != nil {
			t.Fatalf("trial %s failed: %v", res.Spec.ID, res.Err)
		}
		if _, ok := res.Value.(Measurements); !ok {
			t.Fatalf("trial %s returned %T, want Measurements", res.Spec.ID, res.Value)
		}
	}
	if res := results[2]; res.Err == nil || !strings.Contains(res.Err.Error(), "panicked: rank program blew up") {
		t.Fatalf("panicked trial error = %v", res.Err)
	}
	testutil.WaitGoroutines(t, base)
}
