package sched

import (
	"context"
	"fmt"
	"math/rand"

	"dragonfly/internal/alloc"
	"dragonfly/internal/arrival"
	"dragonfly/internal/network"
	"dragonfly/internal/noise"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
	"dragonfly/internal/topo"
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
	// FragSampleEvery samples the machine fragmentation into a digest every
	// N job starts (default 16; the scan is O(machine/64) words).
	FragSampleEvery int
}

// Event opcodes for the OpenStream handler (the a operand of HandleEvent).
const (
	opArrival int64 = iota // b = client/stream index
	opFinish               // b = job slot index
)

// openJob is one in-flight job in the slot arena. Slots are recycled through
// a free list and the nodes slice is reused across occupants, so the
// steady-state loop allocates nothing.
type openJob struct {
	client    int32
	nodesWant int32
	class     arrival.Class
	submitted sim.Time
	started   sim.Time
	duration  sim.Time
	nodes     []topo.NodeID
	gen       *noise.Generator
	alloc     *alloc.Allocation // only set when traffic generation is on
}

// OpenStream drives an always-on cluster simulation: jobs arrive from the
// spec's client streams indefinitely, are placed FCFS (no backfill — the
// queue discipline itself is a fairness baseline) against the live machine,
// and release their nodes when their drawn duration elapses. Unlike
// Scheduler, which keeps a record per job for post-hoc analysis, OpenStream
// folds every completed job into fixed-size streaming digests immediately:
// per-SLO-class slowdown and wait distributions, per-tenant means for the
// Jain fairness index, utilization and fragmentation. Live heap is O(machine
// + concurrent jobs), independent of how many million job events the horizon
// spans.
type OpenStream struct {
	fabric *network.Fabric
	topo   *topo.Topology
	cfg    OpenConfig
	rng    *rand.Rand

	clients []arrival.Client
	streams []*arrival.Stream
	// pending holds each stream's drawn-but-not-yet-delivered arrival; the
	// opArrival event for stream i consumes pending[i] and draws the next.
	pending []arrival.Arrival
	closed  []bool // stream has passed the admission cut

	nodes   *alloc.Tracker
	jobs    []openJob
	free    []int32 // free job slots
	queue   []int32 // FCFS queue of waiting job slots
	scratch []topo.NodeID

	started   bool
	admitted  int
	startedN  int
	finishedN int
	running   int
	busyCount int
	maxQueue  int
	lastAt    sim.Time

	busyNodeCycles uint64
	lastAccounting sim.Time
	origin         sim.Time // engine time when Start ran; stream times are relative to it

	slowdown   [arrival.NumClasses]*stats.Digest
	wait       [arrival.NumClasses]*stats.Digest
	violations [arrival.NumClasses]int64
	classDone  [arrival.NumClasses]int64

	clientSlowSum []float64
	clientDone    []int64

	frag *stats.Digest
}

// NewOpenStream builds an open-arrival run over the fabric's machine.
func NewOpenStream(f *network.Fabric, spec arrival.Spec, cfg OpenConfig) (*OpenStream, error) {
	if cfg.MaxJobEvents <= 0 && cfg.HorizonCycles <= 0 {
		return nil, fmt.Errorf("sched: open stream needs MaxJobEvents or HorizonCycles (it never stops otherwise)")
	}
	if cfg.FragSampleEvery <= 0 {
		cfg.FragSampleEvery = 16
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
		fabric:        f,
		topo:          t,
		cfg:           cfg,
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		clients:       spec.Clients,
		streams:       streams,
		pending:       make([]arrival.Arrival, len(streams)),
		closed:        make([]bool, len(streams)),
		nodes:         alloc.NewTracker(t),
		clientSlowSum: make([]float64, len(streams)),
		clientDone:    make([]int64, len(streams)),
		frag:          stats.NewDigest(),
	}
	for c := range o.slowdown {
		o.slowdown[c] = stats.NewDigest()
		o.wait[c] = stats.NewDigest()
	}
	return o, nil
}

// Start draws the first arrival of every client stream and schedules it. It
// must be called once before the engine runs.
func (o *OpenStream) Start() {
	if o.started {
		return
	}
	o.started = true
	eng := o.fabric.Engine()
	o.origin = eng.Now()
	o.lastAccounting = o.origin
	for i := range o.streams {
		o.advanceStream(eng, i)
	}
}

// Drive runs the simulation to completion: every admitted job has finished
// and the event queue has drained. The context, when non-nil, cancels the run.
func (o *OpenStream) Drive(ctx context.Context) error {
	eng := o.fabric.Engine()
	if ctx == nil {
		return eng.Run()
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		stepped, err := eng.Step()
		if err != nil {
			return err
		}
		if !stepped {
			return nil
		}
	}
}

// advanceStream draws stream i's next arrival and schedules its event, or
// closes the stream when the admission cut (job-event budget or horizon) is
// reached.
func (o *OpenStream) advanceStream(eng *sim.Engine, i int) {
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
	eng.ScheduleCall(o.origin+a.At, o, opArrival, int64(i))
}

// HandleEvent dispatches the two event kinds: an arrival admits one job and
// re-arms its stream; a finish releases one job's nodes.
func (o *OpenStream) HandleEvent(e *sim.Engine, op, arg int64) {
	switch op {
	case opArrival:
		o.handleArrival(e, int(arg))
	case opFinish:
		o.finishJob(e, int32(arg))
	default:
		panic(fmt.Sprintf("sched: open stream got unknown opcode %d", op))
	}
}

// handleArrival turns stream i's pending arrival into a queued job, runs a
// scheduling pass and draws the stream's next arrival.
func (o *OpenStream) handleArrival(eng *sim.Engine, i int) {
	a := o.pending[i]
	slot := o.grabSlot()
	j := &o.jobs[slot]
	j.client = int32(a.Client)
	j.nodesWant = int32(a.Nodes)
	j.class = a.Class
	j.submitted = eng.Now()
	j.duration = a.DurationCycles
	o.queue = append(o.queue, slot)
	if len(o.queue) > o.maxQueue {
		o.maxQueue = len(o.queue)
	}
	o.trySchedule(eng)
	o.advanceStream(eng, i)
}

// grabSlot returns a free job slot, growing the arena only when every slot is
// occupied (arena size tracks peak concurrency, not total jobs).
func (o *OpenStream) grabSlot() int32 {
	if n := len(o.free); n > 0 {
		slot := o.free[n-1]
		o.free = o.free[:n-1]
		return slot
	}
	o.jobs = append(o.jobs, openJob{})
	return int32(len(o.jobs) - 1)
}

// trySchedule starts queued jobs FCFS while the head fits. No backfill: a
// blocked head blocks the queue, which is exactly the discipline whose
// per-class slowdowns the fairness accounting measures.
func (o *OpenStream) trySchedule(eng *sim.Engine) {
	for len(o.queue) > 0 {
		slot := o.queue[0]
		j := &o.jobs[slot]
		if int(j.nodesWant) > o.nodes.FreeNodes() {
			return
		}
		o.queue = o.queue[:copy(o.queue, o.queue[1:])]
		o.startJob(eng, slot)
	}
	// Reset the queue's backing array position when empty so it cannot crawl
	// forward forever under append/copy churn.
	o.queue = o.queue[:0]
}

// startJob places one job and schedules its completion.
func (o *OpenStream) startJob(eng *sim.Engine, slot int32) {
	j := &o.jobs[slot]
	o.accountUtilization(eng)
	nodes, err := o.nodes.Allocate(policyFor(o.cfg.Placement, false), int(j.nodesWant), o.rng, j.nodes[:0])
	if err != nil {
		// Cannot happen: trySchedule checked FreeNodes. Requeue at the head.
		o.queue = append(o.queue, 0)
		copy(o.queue[1:], o.queue)
		o.queue[0] = slot
		return
	}
	j.nodes = nodes
	j.started = eng.Now()
	o.busyCount += len(nodes)
	o.running++
	o.startedN++
	if o.startedN%o.cfg.FragSampleEvery == 0 {
		o.frag.Add(o.nodes.Fragmentation())
	}
	if o.cfg.Traffic.MessageBytes > 0 && len(nodes) >= 2 {
		a := alloc.NewAllocation(o.topo, nodes)
		cfg := noise.GeneratorConfig{
			Pattern:             o.cfg.Traffic.Pattern,
			MessageBytes:        o.cfg.Traffic.MessageBytes,
			IntervalCycles:      o.cfg.Traffic.IntervalCycles,
			JitterFraction:      0.5,
			Mode:                o.cfg.Traffic.Mode,
			BurstLengthMessages: 32,
			BurstIdleCycles:     200_000,
			Seed:                o.cfg.Seed*1_000_003 + int64(o.startedN),
		}
		if g, err := noise.FromAllocation(o.fabric, a, cfg); err == nil {
			j.alloc = a
			j.gen = g
			g.Start(eng.Now() + j.duration)
		}
	}
	eng.ScheduleCall(eng.Now()+j.duration, o, opFinish, int64(slot))
}

// finishJob releases the job's nodes, folds its wait and slowdown into the
// class and tenant accumulators, and recycles the slot.
func (o *OpenStream) finishJob(eng *sim.Engine, slot int32) {
	j := &o.jobs[slot]
	o.accountUtilization(eng)
	if j.gen != nil {
		j.gen.Stop()
		j.gen, j.alloc = nil, nil
	}
	o.nodes.Free(j.nodes)
	o.busyCount -= len(j.nodes)
	o.running--
	o.finishedN++
	if t := eng.Now(); t > o.lastAt {
		o.lastAt = t
	}

	wait := j.started - j.submitted
	run := eng.Now() - j.started
	if run <= 0 {
		run = 1
	}
	slow := float64(wait+run) / float64(run)
	c := j.class
	o.wait[c].Add(float64(wait))
	o.slowdown[c].Add(slow)
	o.classDone[c]++
	if slow > c.TargetSlowdown() {
		o.violations[c]++
	}
	o.clientSlowSum[j.client] += slow
	o.clientDone[j.client]++

	o.free = append(o.free, slot)
	o.trySchedule(eng)
}

// accountUtilization integrates busy node-cycles up to the current time.
func (o *OpenStream) accountUtilization(eng *sim.Engine) {
	now := eng.Now()
	if now > o.lastAccounting {
		o.busyNodeCycles += uint64(now-o.lastAccounting) * uint64(o.busyCount)
		o.lastAccounting = now
	}
}

// policyFor maps the scheduler placement policy to an alloc.Policy.
func policyFor(p AllocationPolicy, commIntensive bool) alloc.Policy {
	switch p {
	case PlaceRandom:
		return alloc.RandomScatter
	case PlaceGroupStriped:
		return alloc.GroupStriped
	case PlaceHybrid:
		if commIntensive {
			return alloc.RandomScatter
		}
		return alloc.Contiguous
	default:
		return alloc.Contiguous
	}
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
	o.accountUtilization(o.fabric.Engine())
	st := OpenStats{
		Admitted:       o.admitted,
		Started:        o.startedN,
		Finished:       o.finishedN,
		MakespanCycles: o.lastAt - o.origin,
		MaxQueueLength: o.maxQueue,
		Fragmentation:  o.frag.Summary(),
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
	}
	means := make([]float64, 0, len(o.clientDone))
	for i, n := range o.clientDone {
		if n > 0 {
			means = append(means, o.clientSlowSum[i]/float64(n))
		}
	}
	st.JainFairness = arrival.JainIndex(means)
	window := o.lastAt - o.origin
	if window > 0 {
		st.Utilization = float64(o.busyNodeCycles) / (float64(window) * float64(o.topo.NumNodes()))
	}
	return st
}
