package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Progress reports one finished trial. Callbacks arrive in completion order
// (not spec order) and are serialized — no two callbacks run concurrently.
type Progress struct {
	// Completed counts trials finished so far, Total the suite size.
	Completed, Total int
	// Index is the spec index of the finished trial.
	Index int
	// ID is the trial id.
	ID string
	// Err is the trial error: a build/measure failure, a captured panic, or
	// the context error for trials skipped after cancellation.
	Err error
	// Elapsed is the wall-clock time the trial took.
	Elapsed time.Duration
}

// Executor configures a trial suite. Trials are independent by construction
// (each runs on a private System seeded only from Seed and the trial id), so
// the worker count changes wall-clock time but never results.
type Executor struct {
	// Parallel is the worker count: 0 means GOMAXPROCS, 1 runs serially.
	Parallel int
	// Seed is the suite seed every trial seed is derived from.
	Seed int64
	// OnProgress, if non-nil, receives one serialized callback per finished
	// trial, in completion order.
	OnProgress func(Progress)
}

// Run executes the trials across x.Parallel workers and returns the values of
// their bodies indexed like specs. The first trial failure cancels the rest
// of the suite: queued trials are skipped and in-flight measurements abort at
// their next iteration check. The returned error is the first real
// (non-cancellation) trial error in spec order, or the first cancellation
// error when the caller's context was the cause; a failed or skipped trial
// leaves the zero value in its slot.
func Run[T any](ctx context.Context, x Executor, specs []TrialSpec[T]) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validateIDs(specs); err != nil {
		return nil, err
	}
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	workers := x.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers < 1 {
		workers = 1
	}

	values := make([]T, len(specs))
	errs := make([]error, len(specs))
	var (
		mu   sync.Mutex // guards done and the progress callback
		done int
	)
	indexes := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns a single-slot system pool: consecutive trials
			// with the same construction key (geometry, routing parameters,
			// decision trace) reuse one constructed System through Reset
			// instead of rebuilding topology and routing tables from scratch.
			pool := &systemPool{}
			for i := range indexes {
				start := time.Now()
				v, err := runOne(runCtx, x.Seed, specs[i], pool)
				elapsed := time.Since(start)
				if err != nil {
					cancelRun()
				}
				mu.Lock()
				values[i], errs[i] = v, err
				done++
				if x.OnProgress != nil {
					x.OnProgress(Progress{
						Completed: done, Total: len(specs),
						Index: i, ID: specs[i].ID, Err: err, Elapsed: elapsed,
					})
				}
				mu.Unlock()
			}
		}()
	}
	for i := range specs {
		indexes <- i
	}
	close(indexes)
	wg.Wait()

	// Report the first real failure in spec order; trials that merely saw the
	// suite's own abort (context.Canceled) only matter when nothing else
	// failed, i.e. the caller cancelled.
	var firstErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		wrapped := fmt.Errorf("harness: trial %q: %w", specs[i].ID, err)
		if firstErr == nil {
			firstErr = wrapped
		}
		if !errors.Is(err, context.Canceled) {
			return values, wrapped
		}
	}
	return values, firstErr
}

// runOne executes a single trial, converting panics into errors so one broken
// trial cannot take down the whole suite. The worker's system pool is
// invalidated when the trial panics, since a panic mid-simulation can leave
// the cached system in an undefined state.
func runOne[T any](ctx context.Context, seed int64, spec TrialSpec[T], pool *systemPool) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			pool.invalidate()
			err = fmt.Errorf("panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if err := ctx.Err(); err != nil {
		return v, err
	}
	sys, err := pool.acquire(spec.key(), TrialSeed(seed, spec.ID))
	if err != nil {
		return v, err
	}
	return spec.Body(ctx, sys)
}

// validateIDs rejects suites with duplicate (or empty) trial ids, which would
// silently collapse two trials onto one random stream.
func validateIDs[T any](specs []TrialSpec[T]) error {
	seen := make(map[string]bool, len(specs))
	for i, s := range specs {
		if s.ID == "" {
			return fmt.Errorf("harness: trial %d has an empty ID", i)
		}
		if seen[s.ID] {
			return fmt.Errorf("harness: duplicate trial ID %q", s.ID)
		}
		seen[s.ID] = true
	}
	return nil
}
