package harness

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"dragonfly"
	"dragonfly/internal/mpi"
	"dragonfly/internal/testutil"
	"dragonfly/internal/workloads"
)

// TestExecutorNoGoroutineLeak pins the executor's goroutine accounting: after
// a parallel suite completes, the worker goroutines and every rank coroutine
// of every trial are gone.
func TestExecutorNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	var specs []TrialSpec[[]dragonfly.Result]
	for _, id := range []string{"a", "b", "c", "d"} {
		specs = append(specs, measureSpec("leak/"+id, 2, pingPong()))
	}
	if _, err := Run(context.Background(), Executor{Parallel: 4, Seed: 9}, specs); err != nil {
		t.Fatal(err)
	}
	testutil.WaitGoroutines(t, base)
}

// TestExecutorCancelNoGoroutineLeak is the ctx-cancellation half: a suite
// cancelled while trials are mid-simulation must release the in-flight rank
// coroutines (Job.Compare shuts its scheduler down), not leave them parked
// for the life of the process.
func TestExecutorCancelNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var specs []TrialSpec[[]dragonfly.Result]
	for _, id := range []string{"a", "b", "c", "d", "e", "f"} {
		spec := measureSpec("leak-cancel/"+id, 200, pingPong())
		// Cancel from inside the first trial body, so later trials are
		// skipped and in-flight measurements abort mid-iteration.
		measure := spec.Body
		spec.Body = func(c context.Context, sys *dragonfly.System) ([]dragonfly.Result, error) {
			cancel()
			return measure(c, sys)
		}
		specs = append(specs, spec)
	}
	_, err := Run(ctx, Executor{Parallel: 3, Seed: 9}, specs)
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
	boom := measureSpec("rank-panic/boom", 3, workloads.Func{WorkloadName: "boom", Body: func(r *mpi.Rank) {
		if r.Rank() != 1 {
			r.Recv(1)
			return
		}
		r.Compute(100)
		panic("rank program blew up")
	}})
	specs := []TrialSpec[[]dragonfly.Result]{
		measureSpec("rank-panic/ok-0", 2, pingPong()), measureSpec("rank-panic/ok-1", 2, pingPong()), boom,
	}
	values, errs, err := runRecording(context.Background(), Executor{Parallel: 1, Seed: 9}, specs)
	if err == nil || !strings.Contains(err.Error(), "rank program blew up") {
		t.Fatalf("suite error = %v, want the rank panic", err)
	}
	for i, res := range values[:2] {
		if errs[i] != nil {
			t.Fatalf("trial %s failed: %v", specs[i].ID, errs[i])
		}
		if len(res) != 2 || len(res[0].Times) != 2 {
			t.Fatalf("trial %s measured %d setups, want 2 with 2 iterations each", specs[i].ID, len(res))
		}
	}
	if errs[2] == nil || !strings.Contains(errs[2].Error(), "panicked: rank program blew up") {
		t.Fatalf("panicked trial error = %v", errs[2])
	}
	testutil.WaitGoroutines(t, base)
}
