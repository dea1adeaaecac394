package dragonfly

import (
	"fmt"

	"dragonfly/internal/mpi"
	"dragonfly/internal/sim"
)

// JobRun pairs one job with the workload and options it runs under inside a
// RunConcurrent call. Each job brings its own routing configuration,
// iteration count and host noise; the jobs share the fabric and the simulated
// clock.
type JobRun struct {
	// Job is the allocated job; it must come from the System RunConcurrent is
	// called on and from the current epoch.
	Job *Job
	// Workload is the program every rank of the job executes per iteration.
	Workload Workload
	// Options configure the job's run exactly as they configure Job.Run.
	Options RunOptions
}

// jobRunState is the bookkeeping of one measured routing configuration inside
// a RunConcurrent or Compare call: it tracks the iteration the configuration
// is on, the counter snapshots its deltas are computed from, and its partial
// Result. Iteration boundaries are private to the state — its snapshots are
// taken at the simulated times *its* iterations start and finish, which is
// what isolates per-job deltas when jobs finish at different times, and
// per-setup deltas when Compare interleaves setups on one job.
type jobRunState struct {
	sys     *System
	run     JobRun
	routing Routing
	iters   int
	// program is the workload's rank body, bound once for all iterations.
	program func(*Rank)
	// next is the state whose iteration starts when one of this state's
	// iterations finishes: the state itself in RunConcurrent, the following
	// setup (the first one after the last) in Compare.
	next *jobRunState
	// namesSetup makes rank errors name the routing setup (Compare).
	namesSetup bool
	comm       *mpi.Comm

	res              Result
	before           Counters
	flits0, stalled0 uint64
	start            sim.Time
	iter             int
	err              error
}

// newRunState prepares the measurement of run under routing rc; a zero rc
// means DefaultRouting.
func (s *System) newRunState(run JobRun, rc Routing) *jobRunState {
	if rc.Provider == nil {
		rc = DefaultRouting()
	}
	iters := run.Options.Iterations
	if iters < 1 {
		iters = 1
	}
	return &jobRunState{sys: s, run: run, routing: rc, iters: iters, program: run.Workload.Run,
		res: Result{
			Setup:  rc.Name,
			Times:  make([]sim.Time, 0, iters),
			Deltas: make([]Counters, 0, iters),
		}}
}

// startIteration snapshots the state's counters and launches one iteration of
// the workload on the shared scheduler.
func (st *jobRunState) startIteration(sched *mpi.Scheduler) {
	st.before = st.run.Job.Counters()
	st.flits0, st.stalled0 = st.sys.fabric.IncomingFlits(st.run.Job.routerSet())
	st.start = st.sys.engine.Now()
	// Start cannot fail here: the scheduler only calls onFinished (which is
	// the only caller besides the initial launch) when every rank finished.
	if err := st.comm.Start(sched, st.program); err != nil {
		st.err = err
	}
}

// finishIteration records one completed iteration; it runs on the scheduler
// goroutine at the simulated time the state's last rank finished. It returns
// true when st.next should start an iteration. The tile deltas are taken per
// iteration, so a state's TileFlits cover only its own iterations; when a
// state's iterations run back to back they telescope to the whole window.
func (st *jobRunState) finishIteration() bool {
	if err := st.comm.Err(); err != nil {
		setup := ""
		if st.namesSetup {
			setup = "setup " + st.routing.Name + ": "
		}
		st.err = fmt.Errorf("dragonfly: %s%w", setup, err)
		return false
	}
	delta := st.run.Job.Counters().Sub(st.before)
	flits, stalled := st.sys.fabric.IncomingFlits(st.run.Job.routerSet())
	st.res.Times = append(st.res.Times, st.sys.engine.Now()-st.start)
	st.res.Deltas = append(st.res.Deltas, delta)
	st.res.Counters.Add(delta)
	st.res.TileFlits += flits - st.flits0
	st.res.TileStalled += stalled - st.stalled0
	st.iter++
	if st.iter == st.iters && st.routing.Stats != nil {
		st.res.SelectorStats = st.routing.Stats()
		st.res.HasSelectorStats = true
	}
	next := st.next
	if next.iter >= next.iters {
		return false
	}
	if ctx := next.run.Options.Context; ctx != nil {
		if err := ctx.Err(); err != nil {
			st.err = fmt.Errorf("dragonfly: cancelled at iteration %d: %w", next.iter, err)
			return false
		}
	}
	return true
}

// validateRun checks that job j may run workload w on the system; prefix
// names the job in the error.
func (s *System) validateRun(prefix string, j *Job, w Workload) error {
	switch {
	case j == nil:
		return fmt.Errorf("dragonfly: %snil job", prefix)
	case j.sys != s:
		return fmt.Errorf("dragonfly: %sjob belongs to a different system", prefix)
	case j.epoch != s.epoch:
		return fmt.Errorf("dragonfly: %sjob is stale: it was allocated before System.Reset", prefix)
	case w == nil:
		return fmt.Errorf("dragonfly: %snil workload", prefix)
	}
	return nil
}

// RunConcurrent executes N jobs concurrently on the shared fabric and returns
// one Result per job, in input order. Each job runs its own workload under
// its own routing configuration, iteration count and host noise; a
// cooperative scheduler interleaves the ranks of all jobs with the event
// engine deterministically, so two identically-built systems produce
// identical per-job Results. This is the paper's co-tenancy scenario with
// real applications on both sides: a victim job measured while actual
// workload-driven neighbors (not just synthetic noise generators) load the
// fabric.
//
// Per-job measurement windows are private: a job's iteration times, NIC
// counter deltas and router-tile deltas are snapshotted when *its* iterations
// start and finish, so they stay correctly isolated even when jobs finish at
// different simulated times. Jobs allocated through Allocate/AllocatePair are
// node-disjoint, which keeps the per-node NIC counters per-job exact; the
// tile deltas intentionally include traffic other jobs push through the
// job's routers — that contention is the observable the paper builds on.
//
// On error the returned slice still carries each job's partial Result. The
// per-job Options.Context values are checked before the first iteration,
// between iterations, and periodically while the simulation advances, so a
// cancelled long-running concurrent run aborts mid-iteration.
func (s *System) RunConcurrent(runs []JobRun) ([]Result, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("dragonfly: RunConcurrent needs at least one job")
	}
	multi := len(runs) > 1
	seen := make(map[*Job]bool, len(runs))
	for i, r := range runs {
		prefix := ""
		if multi {
			prefix = fmt.Sprintf("job %d: ", i)
		}
		if err := s.validateRun(prefix, r.Job, r.Workload); err != nil {
			return nil, err
		}
		if seen[r.Job] {
			return nil, fmt.Errorf("dragonfly: job %d appears more than once", i)
		}
		seen[r.Job] = true
	}
	states := make([]*jobRunState, len(runs))
	for i, r := range runs {
		states[i] = s.newRunState(r, r.Options.Routing)
		states[i].next = states[i]
	}
	return s.measure(states, states)
}

// measure runs the prepared states on one scheduler: it builds every state's
// communicator up front, in order, launches the states in launch, and drives
// the simulation until no state starts another iteration.
func (s *System) measure(states, launch []*jobRunState) ([]Result, error) {
	results := func() []Result {
		out := make([]Result, len(states))
		for i, st := range states {
			out[i] = st.res
		}
		return out
	}
	firstErr := func() error {
		for _, st := range states {
			if st.err != nil {
				return st.err
			}
		}
		return nil
	}

	// Cancellation check before the first iteration (and, through the
	// scheduler hook below, periodically during the run).
	checkAll := func() error {
		for _, st := range states {
			if ctx := st.run.Options.Context; ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := checkAll(); err != nil {
		return results(), fmt.Errorf("dragonfly: cancelled at iteration 0: %w", err)
	}

	sched := mpi.NewScheduler(s.engine)
	defer sched.Shutdown()
	for _, st := range states {
		comm, err := mpi.NewComm(s.fabric, st.run.Job.alloc, mpi.Config{
			Routing:   st.routing.Provider,
			HostNoise: st.run.Options.HostNoise,
		})
		if err != nil {
			return results(), err
		}
		st.comm = comm
		comm.OnFinished(func() {
			if st.finishIteration() {
				st.next.startIteration(sched)
			}
		})
	}
	for _, st := range launch {
		st.startIteration(sched)
	}
	if err := sched.Run(checkAll); err != nil {
		if err2 := checkAll(); err2 != nil && err == err2 {
			err = fmt.Errorf("dragonfly: cancelled mid-run: %w", err)
		}
		return results(), err
	}
	return results(), firstErr()
}
