package dragonfly

import (
	"fmt"

	"dragonfly/internal/mpi"
	"dragonfly/internal/network"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
	"dragonfly/internal/topo"
)

// JobRun pairs one job with the workload and options it runs under inside a
// RunConcurrent call. Each job brings its own routing configuration,
// iteration count, host noise and delivery capture; the jobs share the fabric
// and the simulated clock.
type JobRun struct {
	// Job is the allocated job; it must come from the System RunConcurrent is
	// called on and from the current epoch.
	Job *Job
	// Workload is the program every rank of the job executes per iteration.
	Workload Workload
	// Options configure the job's run exactly as they configure Job.Run.
	Options RunOptions
}

// jobRunState is the per-job bookkeeping of one RunConcurrent call: it tracks
// the iteration the job is on, the counter snapshots its deltas are computed
// from, and the job's partial Result. Iteration boundaries are private to the
// job — its snapshots are taken at the simulated times *its* iterations start
// and finish, which is what isolates per-job deltas when jobs finish at
// different times.
type jobRunState struct {
	sys     *System
	run     JobRun
	comm    *mpi.Comm
	routing Routing
	iters   int

	res              Result
	routers          map[topo.RouterID]bool
	flits0, stalled0 uint64
	before           Counters
	start            sim.Time
	iter             int
	err              error

	obsID  network.ObserverID
	hasObs bool
}

// startIteration snapshots the job's counters and launches one iteration of
// the workload on the shared scheduler.
func (st *jobRunState) startIteration(sched *mpi.Scheduler) {
	st.before = st.run.Job.Counters()
	st.start = st.sys.engine.Now()
	// Start cannot fail here: the scheduler only calls onFinished (which is
	// the only caller besides the initial launch) when every rank finished.
	if err := st.comm.Start(sched, st.run.Workload.Run); err != nil {
		st.err = err
	}
}

// finishIteration records one completed iteration; it runs on the scheduler
// goroutine at the simulated time the job's last rank finished. It returns
// true when the job should start another iteration.
func (st *jobRunState) finishIteration() bool {
	for r := 0; r < st.comm.Size(); r++ {
		if err := st.comm.Rank(r).Err(); err != nil {
			st.err = fmt.Errorf("dragonfly: rank %d: %w", r, err)
			return false
		}
	}
	elapsed := st.sys.engine.Now() - st.start
	delta := st.run.Job.Counters().Sub(st.before)
	st.res.TimeStats.Add(float64(elapsed))
	st.res.totalTime += elapsed
	if st.run.Options.StreamStats {
		// O(1) memory: the digest plus the aggregate counter total stand in
		// for the per-iteration slices.
		st.res.Counters.Add(delta)
	} else {
		st.res.Times = append(st.res.Times, elapsed)
		st.res.Deltas = append(st.res.Deltas, delta)
	}
	st.iter++
	if st.iter >= st.iters {
		st.complete()
		return false
	}
	if ctx := st.run.Options.Context; ctx != nil {
		if err := ctx.Err(); err != nil {
			st.err = fmt.Errorf("dragonfly: cancelled at iteration %d: %w", st.iter, err)
			return false
		}
	}
	return true
}

// complete closes out the job's measurement at its own completion time: the
// tile deltas cover exactly the window from the job's first iteration to its
// last, regardless of how long the other jobs keep running.
func (st *jobRunState) complete() {
	flits1, stalled1 := st.sys.fabric.IncomingFlits(st.routers)
	st.res.TileFlits, st.res.TileStalled = flits1-st.flits0, stalled1-st.stalled0
	// StreamStats runs fold deltas into Counters at every iteration; the
	// slice-backed path sums them here.
	for _, d := range st.res.Deltas {
		st.res.Counters.Add(d)
	}
	if st.routing.Stats != nil {
		st.res.SelectorStats = st.routing.Stats()
		st.res.HasSelectorStats = true
	}
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
// With RecordDeliveries set, a multi-job run captures only the deliveries
// touching that job's nodes; a single-job run captures every delivery on the
// fabric (including background noise), matching Job.Run — which is the
// single-job special case of this method.
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
	jobAt := func(i int) string {
		if multi {
			return fmt.Sprintf("job %d: ", i)
		}
		return ""
	}
	seen := make(map[*Job]bool, len(runs))
	for i, r := range runs {
		switch {
		case r.Job == nil:
			return nil, fmt.Errorf("dragonfly: %snil job", jobAt(i))
		case r.Job.sys != s:
			return nil, fmt.Errorf("dragonfly: %sjob belongs to a different system", jobAt(i))
		case r.Job.epoch != s.epoch:
			return nil, fmt.Errorf("dragonfly: %sjob is stale: it was allocated before System.Reset", jobAt(i))
		case r.Workload == nil:
			return nil, fmt.Errorf("dragonfly: %snil workload", jobAt(i))
		case seen[r.Job]:
			return nil, fmt.Errorf("dragonfly: job %d appears more than once", i)
		}
		seen[r.Job] = true
	}

	states := make([]*jobRunState, len(runs))
	for i, r := range runs {
		rc := r.Options.Routing
		if rc.Provider == nil {
			rc = DefaultRouting()
		}
		iters := r.Options.Iterations
		if iters < 1 {
			iters = 1
		}
		states[i] = &jobRunState{sys: s, run: r, routing: rc, iters: iters,
			res: Result{Setup: rc.Name, TimeStats: stats.NewDigest()}}
	}
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
		st := st
		comm, err := mpi.NewComm(s.fabric, st.run.Job.alloc, mpi.Config{
			Routing:   st.routing.Provider,
			Verb:      st.run.Options.Verb,
			HostNoise: st.run.Options.HostNoise,
		})
		if err != nil {
			return results(), err
		}
		st.comm = comm
		comm.OnFinished(func() {
			if st.finishIteration() {
				st.startIteration(sched)
			}
		})
		if st.run.Options.RecordDeliveries {
			var filter map[NodeID]bool
			if multi {
				filter = make(map[NodeID]bool, st.run.Job.Size())
				for _, n := range st.run.Job.Nodes() {
					filter[n] = true
				}
			}
			st.obsID = s.fabric.AddDeliveryObserver(func(d Delivery) {
				if filter != nil && !filter[d.Src] && !filter[d.Dst] {
					return
				}
				st.res.Deliveries = append(st.res.Deliveries, d)
			})
			st.hasObs = true
			defer s.fabric.RemoveDeliveryObserver(st.obsID)
		}
	}
	for _, st := range states {
		st.routers = st.run.Job.alloc.Routers()
		st.flits0, st.stalled0 = s.fabric.IncomingFlits(st.routers)
	}
	for _, st := range states {
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
