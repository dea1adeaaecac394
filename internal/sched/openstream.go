package sched

import (
	"context"
	"fmt"

	"dragonfly/internal/arrival"
	"dragonfly/internal/network"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
)

// OpenConfig configures an open-arrival scheduling run.
type OpenConfig struct {
	// Placement is the allocation policy applied to every job.
	Placement AllocationPolicy
	// Seed seeds the placement random stream and, offset per client, the
	// arrival streams.
	Seed int64
	// MaxJobEvents stops admission after this many arrivals have been
	// admitted across all clients. HorizonCycles stops admission once a
	// client's next arrival falls past that simulated time. At least one of
	// the two must be set; jobs admitted before the cut always run to
	// completion, so the machine drains cleanly.
	MaxJobEvents  int
	HorizonCycles sim.Time
	// Traffic, when MessageBytes > 0, attaches a synthetic traffic generator
	// to every running job (same knob as JobSpec.Traffic). Zero keeps jobs
	// compute-only, which is what the million-event horizons use.
	Traffic TrafficSpec
}

// OpenStream drives an always-on cluster simulation: jobs arrive from the
// spec's client streams indefinitely and are handed to a Scheduler the
// stream owns, which places them FCFS (no backfill — the queue discipline
// itself is a fairness baseline) against the live machine and releases their
// nodes when their drawn duration elapses. Unlike a batch run, which keeps a
// record per job for post-hoc analysis, the stream folds every completed job
// into fixed-size streaming digests immediately — per-SLO-class slowdown and
// wait distributions, per-tenant means for the Jain fairness index — and the
// scheduler recycles its record. Live heap is O(machine + concurrent jobs),
// independent of how many million job events the horizon spans.
type OpenStream struct {
	s   *Scheduler
	cfg OpenConfig

	clients []arrival.Client
	streams []*arrival.Stream
	// pending holds each stream's drawn-but-not-yet-delivered arrival; the
	// arrival event for stream i consumes pending[i] and draws the next.
	pending []arrival.Arrival
	closed  []bool // stream has passed the admission cut

	admitted int // arrivals drawn within the cut
	arrived  int // arrivals delivered to the scheduler

	slowdown   [arrival.NumClasses]*stats.Digest
	wait       [arrival.NumClasses]*stats.Digest
	violations [arrival.NumClasses]int64
	classDone  [arrival.NumClasses]int64

	clientSlowSum []float64
	clientDone    []int64
}

// NewOpenStream builds an open-arrival run over the fabric's machine.
func NewOpenStream(f *network.Fabric, spec arrival.Spec, cfg OpenConfig) (*OpenStream, error) {
	if cfg.MaxJobEvents <= 0 && cfg.HorizonCycles <= 0 {
		return nil, fmt.Errorf("sched: open stream needs MaxJobEvents or HorizonCycles (it never stops otherwise)")
	}
	if cfg.Traffic.MessageBytes > 0 && cfg.Traffic.IntervalCycles <= 0 {
		return nil, fmt.Errorf("sched: open-stream traffic has no interval")
	}
	spec = spec.Normalize()
	streams, err := arrival.NewStreams(spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := f.Topology()
	for _, c := range spec.Clients {
		if c.MaxNodes > t.NumNodes() {
			return nil, fmt.Errorf("sched: client %q draws jobs up to %d nodes but the machine has %d",
				c.Name, c.MaxNodes, t.NumNodes())
		}
	}
	o := &OpenStream{
		s:             New(f, Config{Placement: cfg.Placement, Seed: cfg.Seed}),
		cfg:           cfg,
		clients:       spec.Clients,
		streams:       streams,
		pending:       make([]arrival.Arrival, len(streams)),
		closed:        make([]bool, len(streams)),
		clientSlowSum: make([]float64, len(streams)),
		clientDone:    make([]int64, len(streams)),
	}
	o.s.retire = o.retire
	for c := range o.slowdown {
		o.slowdown[c] = stats.NewDigest()
		o.wait[c] = stats.NewDigest()
	}
	return o, nil
}

// Start draws the first arrival of every client stream and schedules it. It
// must be called once before the engine runs.
func (o *OpenStream) Start() {
	if o.s.started {
		return
	}
	o.s.Start()
	for i := range o.streams {
		o.advanceStream(i)
	}
}

// Drive runs the simulation to completion: every admitted job has finished
// and the event queue has drained. The context, when non-nil, cancels the run.
func (o *OpenStream) Drive(ctx context.Context) error { return o.s.Drive(ctx) }

// advanceStream draws stream i's next arrival and schedules its event, or
// closes the stream when the admission cut (job-event budget or horizon) is
// reached.
func (o *OpenStream) advanceStream(i int) {
	if o.closed[i] {
		return
	}
	if o.cfg.MaxJobEvents > 0 && o.admitted >= o.cfg.MaxJobEvents {
		o.closed[i] = true
		return
	}
	a := o.streams[i].Next()
	if o.cfg.HorizonCycles > 0 && a.At > o.cfg.HorizonCycles {
		o.closed[i] = true
		return
	}
	o.pending[i] = a
	o.admitted++
	o.s.fabric.Engine().ScheduleCall(o.s.origin+a.At, o, int64(i), 0)
}

// HandleEvent implements sim.Handler for the arrival event of stream i (the
// a operand): it hands the pending arrival to the scheduler as a job and
// draws the stream's next arrival.
func (o *OpenStream) HandleEvent(_ *sim.Engine, i, _ int64) {
	a := o.pending[i]
	o.arrived++
	rec := o.s.record()
	rec.Spec = JobSpec{Nodes: a.Nodes, DurationCycles: a.DurationCycles, Traffic: o.cfg.Traffic}
	rec.seed = o.cfg.Seed*1_000_003 + int64(o.arrived)
	rec.client = a.Client
	o.s.arrive(rec)
	o.advanceStream(int(i))
}

// retire folds a finished job's wait and slowdown into the class and tenant
// accumulators; the scheduler then recycles the record.
func (o *OpenStream) retire(rec *JobRecord) {
	wait := rec.StartedAt - rec.SubmittedAt
	run := max(rec.FinishedAt-rec.StartedAt, 1)
	slow := float64(wait+run) / float64(run)
	c := o.clients[rec.client].Class
	o.wait[c].Add(float64(wait))
	o.slowdown[c].Add(slow)
	o.classDone[c]++
	if slow > c.TargetSlowdown() {
		o.violations[c]++
	}
	o.clientSlowSum[rec.client] += slow
	o.clientDone[rec.client]++
}

// ClassStats summarizes one SLO class over a run.
type ClassStats struct {
	// Finished counts completed jobs of the class.
	Finished int64
	// Slowdown and WaitCycles are the streaming distributions over completed
	// jobs ((wait+run)/run, and wait, respectively).
	Slowdown   stats.Summary
	WaitCycles stats.Summary
	// TargetSlowdown echoes the class SLO bound; ViolationFrac is the
	// fraction of completed jobs whose slowdown exceeded it (always 0 for
	// best-effort, whose bound is +Inf).
	TargetSlowdown float64
	ViolationFrac  float64
}

// OpenStats summarizes an open-arrival run.
type OpenStats struct {
	// Admitted, Started and Finished count job events through the pipeline;
	// after a drained run all three are equal.
	Admitted, Started, Finished int
	// MakespanCycles is the time from Start to the last job completion.
	MakespanCycles sim.Time
	// MaxQueueLength is the peak backlog observed.
	MaxQueueLength int
	// Utilization is busy node-cycles over machine node-cycles for the run.
	Utilization float64
	// Fragmentation is the distribution of the free-capacity fragmentation
	// metric sampled across job starts.
	Fragmentation stats.Summary
	// Classes holds the per-SLO-class distributions, indexed by arrival.Class.
	Classes [arrival.NumClasses]ClassStats
	// JainFairness is Jain's index over the per-tenant mean slowdowns of
	// every client that completed at least one job: 1 when all tenants see
	// the same mean slowdown, approaching 1/n when one tenant absorbs all
	// the queueing.
	JainFairness float64
}

// Stats computes the summary. Call after Drive has drained the run.
func (o *OpenStream) Stats() OpenStats {
	s := o.s
	s.accountUtilization()
	st := OpenStats{
		Admitted:       o.admitted,
		Started:        s.startedN,
		MakespanCycles: s.lastEnd - s.origin,
		MaxQueueLength: s.maxQueue,
		Utilization:    s.utilization(s.lastEnd),
		Fragmentation:  s.frag.Summary(),
	}
	for c := 0; c < arrival.NumClasses; c++ {
		cs := ClassStats{
			Finished:       o.classDone[c],
			Slowdown:       o.slowdown[c].Summary(),
			WaitCycles:     o.wait[c].Summary(),
			TargetSlowdown: arrival.Class(c).TargetSlowdown(),
		}
		if o.classDone[c] > 0 {
			cs.ViolationFrac = float64(o.violations[c]) / float64(o.classDone[c])
		}
		st.Classes[c] = cs
		st.Finished += int(o.classDone[c])
	}
	means := make([]float64, 0, len(o.clientDone))
	for i, n := range o.clientDone {
		if n > 0 {
			means = append(means, o.clientSlowSum[i]/float64(n))
		}
	}
	st.JainFairness = arrival.JainIndex(means)
	return st
}
