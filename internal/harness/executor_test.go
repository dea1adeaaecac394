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
	"dragonfly/internal/topo"
)

// testGeometry is a tiny topology that builds fast.
func testGeometry() topo.Config {
	return topo.SmallConfig(2)
}

// valueSpec declares a trivial trial whose body returns a pure function of
// the derived seed, so executions are comparable across worker counts.
func valueSpec(id string) TrialSpec {
	return TrialSpec{
		ID:       id,
		Geometry: testGeometry(),
		Body: func(ctx context.Context, sys *dragonfly.System) (any, error) {
			return fmt.Sprintf("%s:%d", id, sys.Seed()), nil
		},
	}
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
	var specs []TrialSpec
	for i := 0; i < 20; i++ {
		specs = append(specs, valueSpec(fmt.Sprintf("trial-%d", i)))
	}
	ex := &Executor{Parallel: 8, Seed: 42}
	results, err := ex.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results, want %d", len(results), len(specs))
	}
	for i, r := range results {
		if r.Index != i || r.Spec.ID != specs[i].ID {
			t.Fatalf("result %d out of order: index=%d id=%q", i, r.Index, r.Spec.ID)
		}
		if r.Err != nil {
			t.Fatalf("trial %q failed: %v", r.Spec.ID, r.Err)
		}
	}
}

func TestExecutorParallelMatchesSerial(t *testing.T) {
	var specs []TrialSpec
	for i := 0; i < 12; i++ {
		specs = append(specs, valueSpec(fmt.Sprintf("trial-%d", i)))
	}
	extract := func(parallel int) []any {
		results, err := (&Executor{Parallel: parallel, Seed: 7}).Run(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]any, len(results))
		for i, r := range results {
			out[i] = r.Value
		}
		return out
	}
	serial := extract(1)
	parallel := extract(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel results differ from serial:\nserial:   %v\nparallel: %v", serial, parallel)
	}
}

func TestExecutorProgressCounts(t *testing.T) {
	var specs []TrialSpec
	for i := 0; i < 10; i++ {
		specs = append(specs, valueSpec(fmt.Sprintf("trial-%d", i)))
	}
	var mu sync.Mutex
	var completions []int
	ex := &Executor{
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
	if _, err := ex.Run(context.Background(), specs); err != nil {
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
	specs := []TrialSpec{
		valueSpec("ok-0"),
		{
			ID:       "boom",
			Geometry: testGeometry(),
			Body: func(ctx context.Context, sys *dragonfly.System) (any, error) {
				panic("kaboom")
			},
		},
		valueSpec("ok-1"),
	}
	results, err := (&Executor{Parallel: 2}).Run(context.Background(), specs)
	if err == nil {
		t.Fatal("expected the suite to report the panicked trial")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("error does not identify the panic: %v", err)
	}
	// The other trials either completed or were skipped by the fail-fast
	// cancellation — never poisoned by the panic itself.
	for _, i := range []int{0, 2} {
		if results[i].Err != nil && !errors.Is(results[i].Err, context.Canceled) {
			t.Fatalf("healthy trial %d poisoned: %v", i, results[i].Err)
		}
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "panicked") {
		t.Fatalf("panic not captured in result: %v", results[1].Err)
	}
}

// TestExecutorFailFastCancelsRemaining asserts that the first trial failure
// aborts the rest of the suite while still reporting the real error.
func TestExecutorFailFastCancelsRemaining(t *testing.T) {
	wantErr := errors.New("first trial failed")
	specs := []TrialSpec{
		{
			ID:       "fails-first",
			Geometry: testGeometry(),
			Body: func(ctx context.Context, sys *dragonfly.System) (any, error) {
				return nil, wantErr
			},
		},
		valueSpec("queued-0"),
		valueSpec("queued-1"),
	}
	// One worker: the failing trial completes before the others are fed, so
	// the cancellation outcome is deterministic.
	results, err := (&Executor{Parallel: 1}).Run(context.Background(), specs)
	if !errors.Is(err, wantErr) {
		t.Fatalf("suite error should be the real failure, got %v", err)
	}
	for i := 1; i < 3; i++ {
		if !errors.Is(results[i].Err, context.Canceled) {
			t.Fatalf("trial %d should have been cancelled after the failure, got %v", i, results[i].Err)
		}
	}
}

func TestExecutorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the suite starts
	var specs []TrialSpec
	for i := 0; i < 6; i++ {
		specs = append(specs, valueSpec(fmt.Sprintf("trial-%d", i)))
	}
	results, err := (&Executor{Parallel: 2}).Run(ctx, specs)
	if err == nil {
		t.Fatal("expected a context error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should wrap context.Canceled: %v", err)
	}
	for _, r := range results {
		if r.Err == nil {
			t.Fatalf("trial %q ran despite cancellation", r.Spec.ID)
		}
	}
}

func TestExecutorRejectsDuplicateAndEmptyIDs(t *testing.T) {
	if _, err := (&Executor{}).Run(context.Background(), []TrialSpec{valueSpec("x"), valueSpec("x")}); err == nil {
		t.Fatal("duplicate IDs must be rejected")
	}
	if _, err := (&Executor{}).Run(context.Background(), []TrialSpec{{Geometry: testGeometry()}}); err == nil {
		t.Fatal("empty IDs must be rejected")
	}
}

func TestExecutorTrialErrorPropagates(t *testing.T) {
	wantErr := errors.New("trial failed")
	specs := []TrialSpec{
		valueSpec("ok"),
		{
			ID:       "fails",
			Geometry: testGeometry(),
			Body: func(ctx context.Context, sys *dragonfly.System) (any, error) {
				return nil, wantErr
			},
		},
	}
	_, err := (&Executor{Parallel: 2}).Run(context.Background(), specs)
	if !errors.Is(err, wantErr) {
		t.Fatalf("suite error should wrap the trial error, got %v", err)
	}
}

func TestDeclarativeSpecRequiresWorkloadAndSetups(t *testing.T) {
	_, err := (&Executor{}).Run(context.Background(), []TrialSpec{{ID: "incomplete", Geometry: testGeometry()}})
	if err == nil || !strings.Contains(err.Error(), "declarative") {
		t.Fatalf("incomplete declarative spec must be rejected, got %v", err)
	}
}
