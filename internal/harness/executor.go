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
	// Err is the trial error, if any.
	Err error
	// Elapsed is the wall-clock time the trial took.
	Elapsed time.Duration
}

// Result is the outcome of one trial.
type Result struct {
	// Index is the position of the trial in the spec slice.
	Index int
	// Spec is the declaration the trial ran from.
	Spec TrialSpec
	// Seed is the derived seed the trial used.
	Seed int64
	// Value is what the trial body returned ([]dragonfly.Result, one per
	// setup, for the default declarative body).
	Value any
	// Err is the trial error: a build/measure failure, a captured panic, or
	// the context error for trials skipped after cancellation.
	Err error
	// Elapsed is the wall-clock time the trial took.
	Elapsed time.Duration
}

// Executor fans trials out across a pool of worker goroutines. Trials are
// independent by construction (each runs on a private System seeded only from
// Seed and the trial id), so the worker count changes wall-clock time but
// never results.
type Executor struct {
	// Parallel is the worker count: 0 means GOMAXPROCS, 1 runs serially.
	Parallel int
	// Seed is the suite seed every trial seed is derived from.
	Seed int64
	// OnProgress, if non-nil, receives one serialized callback per finished
	// trial, in completion order.
	OnProgress func(Progress)
}

// Run executes the trials and returns their results indexed like specs. The
// first trial failure cancels the rest of the suite: queued trials are
// skipped and in-flight measurements abort at their next iteration check.
// The returned error is the first real (non-cancellation) trial error in
// spec order, or the first cancellation error when the caller's context was
// the cause.
func (x *Executor) Run(ctx context.Context, specs []TrialSpec) ([]Result, error) {
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

	results := make([]Result, len(specs))
	var (
		mu   sync.Mutex // guards done and the progress callback
		done int
	)
	finish := func(i int, res Result) {
		if res.Err != nil {
			cancelRun()
		}
		mu.Lock()
		defer mu.Unlock()
		results[i] = res
		done++
		if x.OnProgress != nil {
			x.OnProgress(Progress{
				Completed: done, Total: len(specs),
				Index: i, ID: res.Spec.ID, Err: res.Err, Elapsed: res.Elapsed,
			})
		}
	}

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
				finish(i, x.runOne(runCtx, i, specs[i], pool))
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
	for _, r := range results {
		if r.Err == nil {
			continue
		}
		wrapped := fmt.Errorf("harness: trial %q: %w", r.Spec.ID, r.Err)
		if firstErr == nil {
			firstErr = wrapped
		}
		if !errors.Is(r.Err, context.Canceled) {
			return results, wrapped
		}
	}
	return results, firstErr
}

// runOne executes a single trial, converting panics into errors so one broken
// trial cannot take down the whole suite. The worker's system pool is
// invalidated when the trial panics, since a panic mid-simulation can leave
// the cached system in an undefined state.
func (x *Executor) runOne(ctx context.Context, i int, spec TrialSpec, pool *systemPool) (res Result) {
	start := time.Now()
	res = Result{Index: i, Spec: spec, Seed: TrialSeed(x.Seed, spec.ID)}
	defer func() {
		res.Elapsed = time.Since(start)
		if r := recover(); r != nil {
			pool.invalidate()
			res.Err = fmt.Errorf("panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	sys, err := pool.acquire(spec, res.Seed)
	if err != nil {
		res.Err = err
		return res
	}
	if spec.Body != nil {
		res.Value, res.Err = spec.Body(ctx, sys)
	} else {
		res.Value, res.Err = runDeclarative(ctx, spec, sys)
	}
	return res
}

// validateIDs rejects suites with duplicate (or empty) trial ids, which would
// silently collapse two trials onto one random stream.
func validateIDs(specs []TrialSpec) error {
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

// Run is a convenience for one-off suites without an explicit Executor.
func Run(ctx context.Context, seed int64, parallel int, specs []TrialSpec) ([]Result, error) {
	return (&Executor{Parallel: parallel, Seed: seed}).Run(ctx, specs)
}
