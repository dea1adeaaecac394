package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dragonfly"
	"dragonfly/internal/noise"
	"dragonfly/internal/topo"
	"dragonfly/internal/workloads"
)

// testGeometry is a tiny topology that builds fast.
func testGeometry() topo.Config {
	return topo.SmallConfig(2)
}

// valueSpec declares a trivial trial whose body returns a pure function of
// the derived seed, so executions are comparable across worker counts.
func valueSpec(id string) TrialSpec[string] {
	return TrialSpec[string]{
		ID:       id,
		Geometry: testGeometry(),
		Body: func(ctx context.Context, sys *dragonfly.System) (string, error) {
			return fmt.Sprintf("%s:%d", id, sys.Seed()), nil
		},
	}
}

// failSpec declares a trial whose body fails with err.
func failSpec(id string, err error) TrialSpec[string] {
	return TrialSpec[string]{
		ID:       id,
		Geometry: testGeometry(),
		Body: func(ctx context.Context, sys *dragonfly.System) (string, error) {
			return "", err
		},
	}
}

// measureSpec declares a small real measurement: a 4-node job next to
// background noise, running w under two static routing modes with
// Job.Compare for the given number of iterations.
func measureSpec(id string, iterations int, w workloads.Workload) TrialSpec[[]dragonfly.Result] {
	return TrialSpec[[]dragonfly.Result]{
		ID:       id,
		Geometry: testGeometry(),
		Body: func(ctx context.Context, sys *dragonfly.System) ([]dragonfly.Result, error) {
			job, err := sys.Allocate(dragonfly.GroupStriped, 4)
			if err != nil {
				return nil, err
			}
			sys.StartNoise(dragonfly.NoiseConfig{Pattern: noise.UniformRandom, Nodes: 4, IntervalCycles: 20_000})
			setups := []dragonfly.Routing{
				dragonfly.StaticRouting(dragonfly.Adaptive),
				dragonfly.StaticRouting(dragonfly.AdaptiveHighBias),
			}
			return job.Compare(w, setups, dragonfly.RunOptions{Iterations: iterations, Context: ctx})
		},
	}
}

// pingPong is the workload the measurement tests run.
func pingPong() workloads.Workload {
	return &workloads.PingPong{MessageBytes: 4 << 10, Iterations: 1}
}

// runRecording runs the suite and also returns every trial's error, read from
// the progress callback (callbacks are serialized and Run waits for them).
func runRecording[T any](ctx context.Context, x Executor, specs []TrialSpec[T]) ([]T, []error, error) {
	errs := make([]error, len(specs))
	x.OnProgress = func(p Progress) { errs[p.Index] = p.Err }
	values, err := Run(ctx, x, specs)
	return values, errs, err
}

func TestTrialSeedDeterministicAndDistinct(t *testing.T) {
	if TrialSeed(1, "a") != TrialSeed(1, "a") {
		t.Fatal("TrialSeed is not deterministic")
	}
	seen := map[int64]string{}
	for _, base := range []int64{0, 1, 2, 1 << 40} {
		for _, id := range []string{"a", "b", "a/b", "b/a", "trial-0", "trial-1"} {
			s := TrialSeed(base, id)
			key := fmt.Sprintf("%d/%s", base, id)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %q and %q both map to %d", prev, key, s)
			}
			seen[s] = key
		}
	}
	if TrialSeed(1, "a") == TrialSeed(2, "a") {
		t.Fatal("different base seeds must give different trial seeds")
	}
}

func TestExecutorResultsInSpecOrder(t *testing.T) {
	var specs []TrialSpec[string]
	for i := 0; i < 20; i++ {
		specs = append(specs, valueSpec(fmt.Sprintf("trial-%d", i)))
	}
	values, errs, err := runRecording(context.Background(), Executor{Parallel: 8, Seed: 42}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != len(specs) {
		t.Fatalf("got %d values, want %d", len(values), len(specs))
	}
	for i, v := range values {
		if errs[i] != nil {
			t.Fatalf("trial %q failed: %v", specs[i].ID, errs[i])
		}
		if want := fmt.Sprintf("%s:%d", specs[i].ID, TrialSeed(42, specs[i].ID)); v != want {
			t.Fatalf("value %d out of order: got %q, want %q", i, v, want)
		}
	}
}

func TestExecutorParallelMatchesSerial(t *testing.T) {
	var specs []TrialSpec[string]
	for i := 0; i < 12; i++ {
		specs = append(specs, valueSpec(fmt.Sprintf("trial-%d", i)))
	}
	extract := func(parallel int) []string {
		values, err := Run(context.Background(), Executor{Parallel: parallel, Seed: 7}, specs)
		if err != nil {
			t.Fatal(err)
		}
		return values
	}
	serial := extract(1)
	parallel := extract(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel results differ from serial:\nserial:   %v\nparallel: %v", serial, parallel)
	}
}

func TestExecutorProgressCounts(t *testing.T) {
	var specs []TrialSpec[string]
	for i := 0; i < 10; i++ {
		specs = append(specs, valueSpec(fmt.Sprintf("trial-%d", i)))
	}
	var mu sync.Mutex
	var completions []int
	ex := Executor{
		Parallel: 4,
		OnProgress: func(p Progress) {
			mu.Lock()
			completions = append(completions, p.Completed)
			if p.Total != len(specs) {
				t.Errorf("Progress.Total = %d, want %d", p.Total, len(specs))
			}
			mu.Unlock()
		},
	}
	if _, err := Run(context.Background(), ex, specs); err != nil {
		t.Fatal(err)
	}
	if len(completions) != len(specs) {
		t.Fatalf("got %d progress callbacks, want %d", len(completions), len(specs))
	}
	for i, c := range completions {
		if c != i+1 {
			t.Fatalf("completion counter out of order: %v", completions)
		}
	}
}

func TestExecutorPanicCapture(t *testing.T) {
	specs := []TrialSpec[string]{
		valueSpec("ok-0"),
		{
			ID:       "boom",
			Geometry: testGeometry(),
			Body: func(ctx context.Context, sys *dragonfly.System) (string, error) {
				panic("kaboom")
			},
		},
		valueSpec("ok-1"),
	}
	_, errs, err := runRecording(context.Background(), Executor{Parallel: 2}, specs)
	if err == nil {
		t.Fatal("expected the suite to report the panicked trial")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("error does not identify the panic: %v", err)
	}
	// The other trials either completed or were skipped by the fail-fast
	// cancellation — never poisoned by the panic itself.
	for _, i := range []int{0, 2} {
		if errs[i] != nil && !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("healthy trial %d poisoned: %v", i, errs[i])
		}
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "panicked") {
		t.Fatalf("panic not captured in the trial error: %v", errs[1])
	}
}

// TestExecutorFailFastCancelsRemaining asserts that the first trial failure
// aborts the rest of the suite while still reporting the real error.
func TestExecutorFailFastCancelsRemaining(t *testing.T) {
	wantErr := errors.New("first trial failed")
	specs := []TrialSpec[string]{failSpec("fails-first", wantErr), valueSpec("queued-0"), valueSpec("queued-1")}
	// One worker: the failing trial completes before the others are fed, so
	// the cancellation outcome is deterministic.
	_, errs, err := runRecording(context.Background(), Executor{Parallel: 1}, specs)
	if !errors.Is(err, wantErr) {
		t.Fatalf("suite error should be the real failure, got %v", err)
	}
	for i := 1; i < 3; i++ {
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("trial %d should have been cancelled after the failure, got %v", i, errs[i])
		}
	}
}

func TestExecutorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the suite starts
	var specs []TrialSpec[string]
	for i := 0; i < 6; i++ {
		specs = append(specs, valueSpec(fmt.Sprintf("trial-%d", i)))
	}
	_, errs, err := runRecording(ctx, Executor{Parallel: 2}, specs)
	if err == nil {
		t.Fatal("expected a context error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should wrap context.Canceled: %v", err)
	}
	for i, e := range errs {
		if e == nil {
			t.Fatalf("trial %q ran despite cancellation", specs[i].ID)
		}
	}
}

func TestExecutorRejectsDuplicateAndEmptyIDs(t *testing.T) {
	if _, err := Run(context.Background(), Executor{}, []TrialSpec[string]{valueSpec("x"), valueSpec("x")}); err == nil {
		t.Fatal("duplicate IDs must be rejected")
	}
	if _, err := Run(context.Background(), Executor{}, []TrialSpec[string]{{Geometry: testGeometry()}}); err == nil {
		t.Fatal("empty IDs must be rejected")
	}
}

func TestExecutorTrialErrorPropagates(t *testing.T) {
	wantErr := errors.New("trial failed")
	specs := []TrialSpec[string]{valueSpec("ok"), failSpec("fails", wantErr)}
	_, err := Run(context.Background(), Executor{Parallel: 2}, specs)
	if !errors.Is(err, wantErr) {
		t.Fatalf("suite error should wrap the trial error, got %v", err)
	}
}

// TestDeclarativeMeasurement runs one measurement trial declared by its spec
// (geometry plus a typed body) and checks that it measures both setups, in
// order, for every iteration.
func TestDeclarativeMeasurement(t *testing.T) {
	values, err := Run(context.Background(), Executor{Parallel: 1, Seed: 5},
		[]TrialSpec[[]dragonfly.Result]{measureSpec("m0", 3, pingPong())})
	if err != nil {
		t.Fatal(err)
	}
	res := values[0]
	if len(res) != 2 {
		t.Fatalf("trial returned %d results, want one per setup (2)", len(res))
	}
	for i, name := range []string{dragonfly.Adaptive.String(), dragonfly.AdaptiveHighBias.String()} {
		m := res[i]
		if m.Setup != name {
			t.Fatalf("result %d is setup %q, want %q (setup order)", i, m.Setup, name)
		}
		if len(m.Times) != 3 || len(m.Deltas) != 3 {
			t.Fatalf("setup %q has %d times / %d deltas, want 3", name, len(m.Times), len(m.Deltas))
		}
		for j, v := range m.Times {
			if v <= 0 {
				t.Fatalf("setup %q iteration %d has non-positive time %v", name, j, v)
			}
		}
	}
}

// TestMeasurementDeterministicAcrossWorkers is the core harness guarantee:
// running the same suite of real simulations with 1 worker and with 8 workers
// yields identical samples, because every trial's randomness derives only
// from (suite seed, trial id).
func TestMeasurementDeterministicAcrossWorkers(t *testing.T) {
	var specs []TrialSpec[[]dragonfly.Result]
	for i := 0; i < 6; i++ {
		specs = append(specs, measureSpec(fmt.Sprintf("m%d", i), 3, pingPong()))
	}
	collect := func(parallel int) [][]dragonfly.Result {
		values, err := Run(context.Background(), Executor{Parallel: parallel, Seed: 11}, specs)
		if err != nil {
			t.Fatal(err)
		}
		return values
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
