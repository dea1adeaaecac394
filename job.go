package dragonfly

import (
	"context"

	"dragonfly/internal/alloc"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
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
}

// System returns the system the job is allocated on.
func (j *Job) System() *System { return j.sys }

// Allocation returns the underlying allocation (escape hatch for subsystems
// that work on allocations, like the trial harness and the scheduler).
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
	// Verb is the RDMA verb used for payload transfers.
	Verb Verb
	// Context, if non-nil, is checked before the first iteration, between
	// iterations, and periodically while the simulation advances, so a
	// cancelled suite aborts even mid-iteration.
	Context context.Context
	// RecordDeliveries captures message deliveries of the run into
	// Result.Deliveries: every delivery on the fabric for a single-job run
	// (Job.Run), only the deliveries touching the job's nodes inside a
	// multi-job RunConcurrent. The capture uses one of the fabric's delivery
	// observer slots and coexists with a message log or telemetry attached to
	// the same fabric.
	RecordDeliveries bool
	// StreamStats drops the unbounded per-iteration slices (Result.Times,
	// Result.Deltas) and keeps only the fixed-size streaming digest
	// (Result.TimeStats) plus the aggregate counters, so a machine-scale run
	// with millions of iterations measures in O(1) memory. The digest is
	// exact below stats.DefaultExactSamples iterations, so small runs lose
	// nothing but the raw slices.
	StreamStats bool
}

// Result is what one Job.Run measured.
type Result struct {
	// Setup is the name of the routing configuration that ran.
	Setup string
	// Times holds one execution time (cycles) per iteration. Empty when the
	// run used RunOptions.StreamStats; use TimeStats then.
	Times []sim.Time
	// Deltas holds the per-iteration NIC counter deltas summed over the job.
	// Empty when the run used RunOptions.StreamStats (Counters still carries
	// the total).
	Deltas []Counters
	// TimeStats is the fixed-size streaming digest of the per-iteration
	// times. It is populated on every run — exact below the digest's sample
	// limit, P²-approximate beyond it — and is the only per-iteration timing
	// record of a StreamStats run.
	TimeStats *stats.Digest

	// totalTime is the exact integer sum of the iteration times, maintained
	// by the runner so Time() stays precise for StreamStats runs whose
	// float64 digest sum would round past 2^53 cycles.
	totalTime sim.Time
	// Counters is the total NIC counter delta over all iterations.
	Counters Counters
	// TileFlits and TileStalled are the router-tile deltas (incoming flits
	// and stalled flits) over the routers the job's nodes attach to.
	TileFlits, TileStalled uint64
	// SelectorStats aggregates the application-aware selector statistics
	// when the routing configuration provides them (see HasSelectorStats).
	SelectorStats SelectorStats
	// HasSelectorStats reports whether SelectorStats is meaningful.
	HasSelectorStats bool
	// Deliveries are the raw message completions of the run, recorded only
	// when RunOptions.RecordDeliveries was set.
	Deliveries []Delivery
}

// Time returns the total execution time over all iterations, exact for both
// slice-backed and StreamStats runs.
func (r Result) Time() sim.Time {
	if len(r.Times) == 0 {
		return r.totalTime
	}
	var total sim.Time
	for _, t := range r.Times {
		total += t
	}
	return total
}

// TimeSummary condenses the per-iteration times into the box-plot summary the
// experiment tables render. It reads the streaming digest, so it works
// identically for slice-backed and StreamStats runs (and is bit-identical to
// stats.Summarize over Times while the digest is in its exact regime).
func (r Result) TimeSummary() stats.Summary {
	if r.TimeStats != nil {
		return r.TimeStats.Summary()
	}
	return stats.Summarize(r.TimesFloat())
}

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
