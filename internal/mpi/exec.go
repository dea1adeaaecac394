package mpi

import (
	"context"
	"fmt"
	"iter"

	"dragonfly/internal/sim"
)

// checkEverySteps is how many engine events the scheduler executes between
// two cancellation checks while it waits for a rank to become runnable. The
// check is a single atomic load on the context, so the interval only bounds
// how long a cancelled run keeps simulating, not the simulated behaviour.
const checkEverySteps = 4096

// Scheduler is the cooperative rank scheduler: it owns the run loop that used
// to live inside Comm.Run and interleaves the runnable ranks of *all* attached
// communicators with the discrete event engine. Every rank program runs on a
// runtime coroutine (iter.Pull) that the scheduler resumes directly and that
// hands control straight back when the rank blocks, so exactly one of the
// scheduler and its ranks runs at a time and a multi-job run is as
// deterministic as a single-job one: ranks resume in FIFO order of the
// runnable queue, and the queue is fed in Start order and then in engine event
// order.
//
// The coroutines are pooled: when a rank's program returns, its coroutine
// parks on the scheduler's idle list and runs the next rank started on the
// scheduler, so a scheduler creates one coroutine per peak-concurrent rank,
// however many programs it runs. Run and Drain leave the idle coroutines
// parked for the next Start; Shutdown ends them, and every owner of a
// scheduler defers it.
//
// A Scheduler is not safe for concurrent use; Run/Drain must not be called
// concurrently with themselves or each other.
type Scheduler struct {
	engine   *sim.Engine
	runnable []*Rank
	// live is the number of unfinished ranks across all attached comms.
	live int
	// coros lists every coroutine the scheduler created and not yet ended;
	// idle is the subset parked without a rank, ready for the next Start.
	coros []*coroutine
	idle  []*coroutine
}

// coroutine is one pooled rank executor: a runtime coroutine that runs the
// program of the rank bound to it, then parks idle until Start binds it to
// another rank.
type coroutine struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// rank and program are the current binding; both are nil while idle.
	rank    *Rank
	program func(*Rank)
}

// errRankAborted is the unwind sentinel a parked rank raises when Shutdown
// stops its coroutine; the coroutine's program wrapper recovers it (and only
// it).
var errRankAborted = fmt.Errorf("mpi: rank aborted by scheduler shutdown")

// NewScheduler builds a scheduler over the given engine.
func NewScheduler(engine *sim.Engine) *Scheduler {
	return &Scheduler{engine: engine}
}

// Engine returns the engine the scheduler drives.
func (s *Scheduler) Engine() *sim.Engine { return s.engine }

// Live reports the number of attached ranks that have not finished their
// current program.
func (s *Scheduler) Live() int { return s.live }

// Idle reports the number of pooled coroutines parked for the next Start.
func (s *Scheduler) Idle() int { return len(s.idle) }

// bind attaches program to rank r on a pooled coroutine, creating one only
// when none is idle. The program starts the first time the scheduler
// resumes r.
func (s *Scheduler) bind(r *Rank, program func(*Rank)) {
	var co *coroutine
	if n := len(s.idle); n > 0 {
		co = s.idle[n-1]
		s.idle = s.idle[:n-1]
	} else {
		co = &coroutine{}
		co.next, co.stop = iter.Pull(co.loop)
		s.coros = append(s.coros, co)
	}
	co.rank, co.program = r, program
	r.co = co
}

// loop is the coroutine body: run the bound program, yield to report it
// finished, and run the next binding once resumed. It returns when Shutdown
// stops the coroutine, whether parked idle or inside a program.
func (co *coroutine) loop(yield func(struct{}) bool) {
	co.yield = yield
	for co.execute() && yield(struct{}{}) {
	}
}

// execute runs the bound program and marks its rank finished. It reports
// false when Shutdown unwound the program instead; any other panic
// propagates out of the scheduler's next() call into Run or Drain.
func (co *coroutine) execute() (completed bool) {
	defer func() {
		if e := recover(); e != nil && e != errRankAborted {
			panic(e)
		}
	}()
	co.program(co.rank)
	co.rank.finished = true
	return true
}

// markRunnable re-queues a rank whose pending operation completed. It must be
// called inside the scheduler's drive loop (engine event callbacks and rank
// programs qualify).
func (s *Scheduler) markRunnable(r *Rank) {
	if r.queued || r.finished {
		return
	}
	r.queued = true
	s.runnable = append(s.runnable, r)
}

// runRunnable resumes runnable ranks in FIFO order until none are left. When
// the last rank of a communicator finishes, the communicator's finish time is
// stamped and its OnFinished hook runs — the hook may Start the communicator
// again (the facade uses this to chain measurement iterations), which feeds
// the queue and keeps the loop going. The queue is drained by index and
// truncated once empty, so it keeps its capacity and a resume never
// allocates.
func (s *Scheduler) runRunnable() {
	for i := 0; i < len(s.runnable); i++ {
		r := s.runnable[i]
		r.queued = false
		if r.finished {
			continue
		}
		co := r.co
		co.next()
		if r.finished {
			co.rank, co.program, r.co = nil, nil, nil
			s.idle = append(s.idle, co)
			s.live--
			c := r.comm
			c.remaining--
			if c.remaining == 0 {
				c.finishedAt = s.engine.Now()
				if c.onFinished != nil {
					c.onFinished()
				}
			}
		}
	}
	s.runnable = s.runnable[:0]
}

// stepUntil executes engine events until a rank becomes runnable or the queue
// empties, checking the cancellation hook every checkEverySteps events.
func (s *Scheduler) stepUntil(check func() error) error {
	steps := 0
	for s.engine.Pending() > 0 && len(s.runnable) == 0 {
		stepped, err := s.engine.Step()
		if err != nil {
			return err
		}
		if !stepped {
			break
		}
		if steps++; check != nil && steps%checkEverySteps == 0 {
			if err := check(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run drives the simulation until every rank of every attached communicator
// has finished its program. It returns an error on deadlock (no rank can make
// progress and no simulation events remain) or when the optional check hook
// reports one (cancellation). Pending engine events beyond the last rank's
// completion — background noise, telemetry ticks — are left queued, exactly as
// the historical Comm.Run left them. A panic in a rank program propagates out
// of Run on the caller's goroutine after Shutdown released the other ranks.
// Run returns with the finished ranks' coroutines parked idle for the next
// Start; the owner's deferred Shutdown ends them.
func (s *Scheduler) Run(check func() error) error {
	defer s.shutdownOnPanic()
	defer s.releaseEngineWorkers()
	for s.live > 0 {
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		s.runRunnable()
		if s.live == 0 {
			break
		}
		// No rank is runnable: advance simulated time until one becomes so.
		if err := s.stepUntil(check); err != nil {
			return err
		}
		if len(s.runnable) == 0 {
			return fmt.Errorf("mpi: deadlock, %d ranks blocked with no pending events", s.live)
		}
	}
	return nil
}

// Drain drives the simulation until the event queue is empty and no attached
// rank remains unfinished. Unlike Run it does not stop when the attached
// communicators finish: it keeps executing events (job arrivals, background
// traffic) that may attach *new* communicators mid-run — the batch scheduler
// relies on this to co-run workload-driven jobs that start at simulated
// arrival times. It is the rank-aware equivalent of Engine.Run. Panics and
// the idle pool are handled as in Run.
func (s *Scheduler) Drain(check func() error) error {
	defer s.shutdownOnPanic()
	defer s.releaseEngineWorkers()
	for {
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		s.runRunnable()
		if s.engine.Pending() == 0 {
			if s.live > 0 {
				return fmt.Errorf("mpi: deadlock, %d ranks blocked with no pending events", s.live)
			}
			return nil
		}
		if err := s.stepUntil(check); err != nil {
			return err
		}
	}
}

// shutdownOnPanic releases the scheduler's coroutines when a panic escapes
// the drive loop (a rank program, an engine event callback or an OnFinished
// hook blowing up), then lets the panic continue. Callers that recover such
// panics — the trial harness captures them per trial — would otherwise strand
// every unfinished rank, exactly the leak Shutdown exists to prevent. At every
// point a panic can escape Run or Drain, the surviving coroutines are parked
// (a rank only executes inside the drive loop's next() call, and a rank's
// panic ends its own coroutine), so Shutdown is safe here.
func (s *Scheduler) shutdownOnPanic() {
	if r := recover(); r != nil {
		s.Shutdown()
		panic(r)
	}
}

// Shutdown is the scheduler's one release point, and every owner of a
// scheduler defers it. It stops every coroutine: an unfinished rank's parked
// block() unwinds its program (the rank counts as finished), and the idle
// coroutines end. After a run that returned an error (cancellation,
// deadlock) this is what keeps the abandoned ranks, and everything their
// programs reference, from living for the rest of the process; after a
// completed run it only ends the idle pool.
//
// Shutdown is idempotent. The scheduler may be used again afterwards (the
// next Start creates fresh coroutines), but the communicators of ranks it
// unwound must not be reused: their in-flight collectives and mailboxes are
// torn mid-operation. It must not be called from a rank program.
func (s *Scheduler) Shutdown() {
	for _, co := range s.coros {
		co.stop()
		if r := co.rank; r != nil {
			r.finished = true
			r.co = nil
			s.live--
			r.comm.remaining--
		}
		co.rank, co.program = nil, nil
	}
	s.coros, s.idle = nil, nil
	s.runnable = s.runnable[:0]
	s.releaseEngineWorkers()
}

// releaseEngineWorkers tears down the sharded driver's persistent window
// workers, if any. Run and Drain call it on every exit (the pool is an
// intra-run optimization — a finished or abandoned run must leave no parked
// goroutines), and Shutdown calls it so direct shutdown paths reap the pool
// too. Safe mid-panic: the window barrier collects every woken worker before
// a worker panic is re-raised, so the pool is always parked here.
func (s *Scheduler) releaseEngineWorkers() {
	if sh := s.engine.Sharded(); sh != nil {
		sh.Shutdown()
	}
}

// ContextCheck adapts a context to the scheduler's cancellation hook shape.
// A nil context yields a nil hook (no checking).
func ContextCheck(ctx context.Context) func() error {
	if ctx == nil {
		return nil
	}
	return func() error { return ctx.Err() }
}
