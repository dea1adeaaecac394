package dragonfly_test

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"dragonfly"
	"dragonfly/internal/testutil"
	"dragonfly/internal/workloads"
)

// TestRunConcurrentNoGoroutineLeak pins the goroutine accounting of the
// concurrent runner: a completed multi-job run leaves no rank coroutines
// behind, parked idle or not.
func TestRunConcurrentNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	sys, runs := concurrentSystem(t, 21)
	if _, err := sys.RunConcurrent(runs); err != nil {
		t.Fatal(err)
	}
	testutil.WaitGoroutines(t, base)
}

// TestRunConcurrentCancelNoGoroutineLeak is the regression test for the
// abandoned-run leak: a RunConcurrent cancelled *mid-run* used to leave every
// unfinished rank goroutine parked forever; Scheduler.Shutdown now releases
// them. The context is cancelled from inside the run (the first host-noise
// sample), so ranks are genuinely in flight when the abort happens.
func TestRunConcurrentCancelNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	sys, runs := concurrentSystem(t, 22)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runs[0].Options.Context = ctx
	runs[0].Options.Iterations = 50
	runs[0].Options.HostNoise = func(rank int) int64 {
		cancel() // fires on the scheduler goroutine during the first iteration
		return 0
	}
	if _, err := sys.RunConcurrent(runs); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancellation returned %v, want context.Canceled", err)
	}
	testutil.WaitGoroutines(t, base)
}

// TestJobRunCancelNoGoroutineLeak covers the single-job path (the Shutdown the
// facade's measurement loop defers) through Job.Run, for a rank parked in an
// Alltoall and for one parked in an Allreduce, whose rounds the scheduler
// advances without resuming the rank: the cancellation must still release it.
func TestJobRunCancelNoGoroutineLeak(t *testing.T) {
	for _, w := range []dragonfly.Workload{
		&workloads.Alltoall{MessageBytes: 4 << 10, Iterations: 1},
		&workloads.Allreduce{Elements: 64, Iterations: 1},
	} {
		base := runtime.NumGoroutine()
		sys, err := dragonfly.New(
			dragonfly.WithGeometry(dragonfly.SmallGeometry(4)),
			dragonfly.WithSeed(23),
		)
		if err != nil {
			t.Fatal(err)
		}
		job, err := sys.Allocate(dragonfly.GroupStriped, 8)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		samples := 0
		_, err = job.Run(w, dragonfly.RunOptions{
			Iterations: 50,
			Context:    ctx,
			// Cancel at a host-noise sample once every rank is inside a
			// call: for the Allreduce, at a round the scheduler runs.
			HostNoise: func(rank int) int64 {
				if samples++; samples == 20 {
					cancel()
				}
				return 0
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled Job.Run returned %v, want context.Canceled", w.Name(), err)
		}
		testutil.WaitGoroutines(t, base)
	}
}
