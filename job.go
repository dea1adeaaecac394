package dragonfly

import (
	"context"
	"fmt"

	"dragonfly/internal/alloc"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
	"dragonfly/internal/topo"
)

// Job is a set of nodes allocated to one application on a System. Running a
// workload on it builds an MPI-style communicator (one rank per allocated
// node) and drives the simulation until the workload completes.
//
// A Job is bound to the System epoch it was allocated in: after
// System.Reset, running a pre-Reset job fails with an error.
type Job struct {
	sys   *System
	alloc *alloc.Allocation
	epoch uint64
	// routers is the set of routers the job's nodes attach to, built by the
	// job's first measurement and shared by the later ones.
	routers map[topo.RouterID]bool
}

// routerSet returns the set of routers the job's nodes attach to, whose
// incoming tile counters each measurement snapshots.
func (j *Job) routerSet() map[topo.RouterID]bool {
	if j.routers == nil {
		j.routers = j.alloc.Routers()
	}
	return j.routers
}

// Allocation returns the underlying allocation (escape hatch for subsystems
// that work on allocations, like the batch scheduler and router-tile
// observers).
func (j *Job) Allocation() *alloc.Allocation { return j.alloc }

// Nodes returns the allocated nodes in rank order.
func (j *Job) Nodes() []NodeID { return j.alloc.Nodes() }

// Size returns the number of ranks (allocated nodes).
func (j *Job) Size() int { return j.alloc.Size() }

// String summarizes the job's placement.
func (j *Job) String() string { return j.alloc.String() }

// Counters sums the current NIC counters over the job's nodes. Subtract two
// snapshots to isolate a phase; Run does this per iteration automatically.
// Counters reads the fabric's current state: on a job from before a
// System.Reset it reports the new epoch's counters over the old node set
// (only Run enforces the epoch guard).
func (j *Job) Counters() Counters {
	var total Counters
	for _, n := range j.alloc.Nodes() {
		total.Add(j.sys.fabric.NodeCounters(n))
	}
	return total
}

// RunOptions configures one Job.Run call. The zero value runs a single
// iteration under the Cray default routing.
type RunOptions struct {
	// Routing selects the routing configuration; the zero value means
	// DefaultRouting().
	Routing Routing
	// Iterations is the number of measured repetitions (minimum 1). The
	// communicator (and any selector state) persists across iterations.
	Iterations int
	// HostNoise, if non-nil, samples a host-side delay in cycles at every
	// point-to-point operation, modelling OS noise.
	HostNoise func(rank int) int64
	// Context, if non-nil, is checked before the first iteration, between
	// iterations, and periodically while the simulation advances, so a
	// cancelled suite aborts even mid-iteration.
	Context context.Context
}

// Result is what one Job.Run measured, or one setup of a Job.Compare.
type Result struct {
	// Setup is the name of the routing configuration that ran.
	Setup string
	// Times holds one execution time (cycles) per iteration.
	Times []sim.Time
	// Deltas holds the per-iteration NIC counter deltas summed over the job.
	Deltas []Counters
	// Counters is the total NIC counter delta over all iterations.
	Counters Counters
	// TileFlits and TileStalled are the router-tile deltas (incoming flits
	// and stalled flits) over the routers the job's nodes attach to, summed
	// over the run's iterations.
	TileFlits, TileStalled uint64
	// SelectorStats aggregates the application-aware selector statistics
	// when the routing configuration provides them (see HasSelectorStats).
	SelectorStats SelectorStats
	// HasSelectorStats reports whether SelectorStats is meaningful.
	HasSelectorStats bool
}

// Time returns the total execution time over all iterations.
func (r Result) Time() sim.Time {
	var total sim.Time
	for _, t := range r.Times {
		total += t
	}
	return total
}

// TimeSummary condenses the per-iteration times into the box-plot summary the
// experiment tables render.
func (r Result) TimeSummary() stats.Summary { return stats.Summarize(r.TimesFloat()) }

// TimesFloat returns the per-iteration times as float64s, the shape the stats
// helpers consume.
func (r Result) TimesFloat() []float64 {
	out := make([]float64, len(r.Times))
	for i, t := range r.Times {
		out[i] = float64(t)
	}
	return out
}

// Run executes the workload on the job's ranks under the given options and
// returns the measurement. Each rank runs the workload body in ordinary
// blocking style on a pooled coroutine; a cooperative scheduler interleaves
// them with the event engine, so the run is deterministic.
//
// Run is the single-job special case of System.RunConcurrent: to measure this
// job while other real applications load the fabric, put them all in one
// RunConcurrent call instead.
func (j *Job) Run(w Workload, opts RunOptions) (Result, error) {
	rs, err := j.sys.RunConcurrent([]JobRun{{Job: j, Workload: w, Options: opts}})
	if len(rs) != 1 {
		return Result{}, err
	}
	return rs[0], err
}

// Compare measures the workload on the job under every routing setup,
// alternating the setups on successive iterations as the paper does, so that
// transient noise does not penalize a single configuration: iteration i runs
// setups[0] … setups[K-1] back to back, each starting at the simulated time
// the previous one finished. It returns one Result per setup, in setup order,
// each covering only that setup's iterations (times, counter and tile deltas,
// selector statistics).
//
// Every setup gets its own communicator, built once up front in setup order:
// each Provider is called once per rank, and selector state persists across
// the setup's iterations. opts applies to every setup; its Routing must be
// left zero (the setups name the routings). A rank error names the setup it happened under; on error the returned slice still
// carries each setup's partial Result.
func (j *Job) Compare(w Workload, setups []Routing, opts RunOptions) ([]Result, error) {
	switch {
	case len(setups) == 0:
		return nil, fmt.Errorf("dragonfly: Compare needs at least one setup")
	case opts.Routing.Name != "" || opts.Routing.Provider != nil || opts.Routing.Stats != nil:
		return nil, fmt.Errorf("dragonfly: Compare takes its routings from setups; RunOptions.Routing must be zero")
	}
	s := j.sys
	if err := s.validateRun("", j, w); err != nil {
		return nil, err
	}
	run := JobRun{Job: j, Workload: w, Options: opts}
	states := make([]*jobRunState, len(setups))
	for i, rc := range setups {
		states[i] = s.newRunState(run, rc)
		states[i].namesSetup = true
	}
	for i, st := range states {
		st.next = states[(i+1)%len(states)]
	}
	return s.measure(states, states[:1])
}
