package sched

// The reference schedulers: the batch Scheduler and the OpenStream as they
// were while each kept its own FCFS queue, placement mapping, utilization
// integral, job start and finish path and drive loop. FuzzSchedule runs them
// against the one Scheduler core (with OpenStream a source over it) and
// requires the same schedules, traffic and statistics. The only departure
// from that code is the fragmentation sampling period, which was an
// OpenConfig field and is the constant 16 here.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"dragonfly/internal/alloc"
	"dragonfly/internal/arrival"
	"dragonfly/internal/mpi"
	"dragonfly/internal/network"
	"dragonfly/internal/noise"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
	"dragonfly/internal/topo"
	"dragonfly/internal/workloads"
)

// refJobRecord is the scheduler's bookkeeping for one job.
type refJobRecord struct {
	// ID is the submission order, starting at 0.
	ID int
	// Spec is the submitted job description.
	Spec JobSpec
	// State is the job's current lifecycle state.
	State JobState
	// SubmittedAt, StartedAt and FinishedAt are absolute simulated times;
	// StartedAt and FinishedAt are meaningful only after the respective
	// transitions.
	SubmittedAt sim.Time
	StartedAt   sim.Time
	FinishedAt  sim.Time
	// Allocation is the node set assigned to the job (nil while queued).
	Allocation *alloc.Allocation
	// RoutersSpanned and GroupsSpanned record the placement fragmentation.
	RoutersSpanned int
	GroupsSpanned  int
	// MessagesSent is the traffic the job injected while running (generator
	// jobs only; workload-driven jobs report AppPackets instead).
	MessagesSent uint64

	// RanApp reports whether the job ran as a real workload-driven
	// application on the executor (rather than a traffic generator).
	RanApp bool
	// AppCycles is the simulated time the application took, and AppPackets
	// the request packets its nodes injected (both meaningful when RanApp).
	AppCycles  sim.Time
	AppPackets uint64
	// AppErr records why a requested App could not run (the job fell back to
	// the traffic generator), or a rank error the application hit.
	AppErr error
	// TrafficErr records a traffic-generator construction failure. The job
	// still runs (it occupies nodes for its duration) but injects nothing —
	// without this field that degradation was silent.
	TrafficErr error

	generator  *noise.Generator
	comm       *mpi.Comm
	appPackets uint64 // injected-packet snapshot at application start
}

// WaitCycles returns how long the job waited in the queue (0 while queued).
func (r *refJobRecord) WaitCycles() sim.Time {
	if r.State == Queued {
		return 0
	}
	return r.StartedAt - r.SubmittedAt
}

// refScheduler places jobs on the fabric's nodes and drives their lifecycle with
// simulation events. It is not safe for concurrent use; all methods must be
// called from the simulation goroutine.
type refScheduler struct {
	fabric *network.Fabric
	topo   *topo.Topology
	cfg    Config
	rng    *rand.Rand

	jobs    []*refJobRecord
	queue   []*refJobRecord
	running map[int]*refJobRecord
	started bool

	// nodes tracks the busy/free state of every machine node incrementally
	// (bitset plus free list) instead of rebuilding exclusion maps per pass.
	nodes *alloc.Tracker
	// busyCount is the number of nodes held by running jobs; reservedCount the
	// number excluded from scheduling (e.g. nodes of a measured foreground
	// job). Both are also marked busy in the tracker.
	busyCount     int
	reservedCount int
	// scratch is the recycled destination for tracker allocations.
	scratch []topo.NodeID

	// exec, when attached, runs workload-driven jobs (JobSpec.App) as real
	// co-scheduled applications instead of synthetic generators.
	exec *mpi.Scheduler

	busyNodeCycles uint64
	lastAccounting sim.Time
}

// New builds a scheduler over the fabric's machine.
func newRefScheduler(f *network.Fabric, cfg Config) *refScheduler {
	return &refScheduler{
		fabric:  f,
		topo:    f.Topology(),
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		running: make(map[int]*refJobRecord),
		nodes:   alloc.NewTracker(f.Topology()),
	}
}

// AttachExecutor hands the scheduler a cooperative rank executor. With one
// attached, jobs whose spec carries an App run their real application on the
// fabric — actual workload-driven traffic, completion when the workload
// completes — instead of being approximated by a traffic generator. Drive the
// run with Drive (or the executor's Drain) rather than Engine.Run, so the
// application ranks interleave with the scheduler's events.
func (s *refScheduler) AttachExecutor(x *mpi.Scheduler) { s.exec = x }

// Drive runs the simulation to completion: through the attached executor when
// one is present (so workload-driven jobs co-run with the event queue), with
// a plain engine run otherwise. The context, when non-nil, cancels the run.
// Drive owns the executor's coroutines: it shuts the executor down on return,
// releasing the ranks of an aborted drain and the idle pool of a completed one.
func (s *refScheduler) Drive(ctx context.Context) error {
	if s.exec != nil {
		defer s.exec.Shutdown()
		return s.exec.Drain(mpi.ContextCheck(ctx))
	}
	eng := s.fabric.Engine()
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

// Reserve excludes the given nodes from scheduling. It is used to protect the
// allocation of a measured foreground job from being handed to batch jobs.
func (s *refScheduler) Reserve(nodes []topo.NodeID) {
	for _, n := range nodes {
		if !s.nodes.Busy(n) {
			s.reservedCount++
		}
	}
	s.nodes.Reserve(nodes)
}

// Jobs returns all job records in submission order, as a fresh slice the
// caller may reorder or truncate freely. (The records themselves are shared;
// the scheduler keeps updating them as jobs progress.)
func (s *refScheduler) Jobs() []*refJobRecord {
	return append([]*refJobRecord(nil), s.jobs...)
}

// QueueLength returns the number of jobs currently waiting.
func (s *refScheduler) QueueLength() int { return len(s.queue) }

// FreeNodes returns the number of nodes that are neither busy nor reserved.
func (s *refScheduler) FreeNodes() int { return s.nodes.FreeNodes() }

// Submit registers a job. Jobs submitted before Start are scheduled at their
// arrival time; jobs submitted after Start are scheduled relative to the
// current time.
func (s *refScheduler) Submit(spec JobSpec) (*refJobRecord, error) {
	if err := spec.Validate(s.topo.NumNodes() - s.reservedCount); err != nil {
		return nil, err
	}
	rec := &refJobRecord{ID: len(s.jobs), Spec: spec, State: Queued}
	s.jobs = append(s.jobs, rec)
	if s.started {
		s.scheduleArrival(rec)
	}
	return rec, nil
}

// MustSubmit is like Submit but panics on error.
func (s *refScheduler) MustSubmit(spec JobSpec) *refJobRecord {
	rec, err := s.Submit(spec)
	if err != nil {
		panic(err)
	}
	return rec
}

// Start schedules the arrival events of every submitted job. It must be called
// once, before or during the simulation run.
func (s *refScheduler) Start() {
	if s.started {
		return
	}
	s.started = true
	s.lastAccounting = s.fabric.Engine().Now()
	for _, rec := range s.jobs {
		s.scheduleArrival(rec)
	}
}

// scheduleArrival schedules the enqueue event of one job.
func (s *refScheduler) scheduleArrival(rec *refJobRecord) {
	eng := s.fabric.Engine()
	eng.Schedule(eng.Now()+rec.Spec.ArrivalCycles, func() {
		rec.SubmittedAt = eng.Now()
		s.queue = append(s.queue, rec)
		s.trySchedule()
	})
}

// accountUtilization integrates busy node-cycles up to the current time.
func (s *refScheduler) accountUtilization() {
	now := s.fabric.Engine().Now()
	if now > s.lastAccounting {
		s.busyNodeCycles += uint64(now-s.lastAccounting) * uint64(s.busyCount)
		s.lastAccounting = now
	}
}

// allocPolicyFor maps the scheduler placement policy to an alloc.Policy for
// one specific job.
func (s *refScheduler) allocPolicyFor(spec JobSpec) alloc.Policy {
	switch s.cfg.Placement {
	case PlaceRandom:
		return alloc.RandomScatter
	case PlaceGroupStriped:
		return alloc.GroupStriped
	case PlaceHybrid:
		if spec.CommIntensive {
			return alloc.RandomScatter
		}
		return alloc.Contiguous
	default:
		return alloc.Contiguous
	}
}

// earliestCompletion returns the earliest finish time among running jobs, or
// the current time when nothing is running.
func (s *refScheduler) earliestCompletion() sim.Time {
	now := s.fabric.Engine().Now()
	earliest := sim.Time(-1)
	for _, rec := range s.running {
		end := rec.StartedAt + rec.Spec.DurationCycles
		if earliest < 0 || end < earliest {
			earliest = end
		}
	}
	if earliest < 0 {
		return now
	}
	return earliest
}

// trySchedule starts as many queued jobs as the free nodes and the scheduling
// discipline allow.
func (s *refScheduler) trySchedule() {
	progressed := true
	for progressed {
		progressed = false
		if len(s.queue) == 0 {
			return
		}
		head := s.queue[0]
		if head.Spec.Nodes <= s.FreeNodes() {
			s.queue = s.queue[1:]
			s.startJob(head)
			progressed = true
			continue
		}
		if !s.cfg.Backfill {
			return
		}
		// Conservative backfill: a later job may start now if it fits and is
		// guaranteed to finish before the head job could possibly start (the
		// earliest completion of any running job).
		now := s.fabric.Engine().Now()
		shadow := s.earliestCompletion()
		for i := 1; i < len(s.queue); i++ {
			cand := s.queue[i]
			if cand.Spec.Nodes > s.FreeNodes() {
				continue
			}
			if now+cand.Spec.DurationCycles > shadow {
				continue
			}
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.startJob(cand)
			progressed = true
			break
		}
	}
}

// startJob allocates nodes, starts the job's traffic generator and schedules
// its completion.
func (s *refScheduler) startJob(rec *refJobRecord) {
	s.accountUtilization()
	eng := s.fabric.Engine()
	nodes, err := s.nodes.Allocate(s.allocPolicyFor(rec.Spec), rec.Spec.Nodes, s.rng, s.scratch[:0])
	s.scratch = nodes[:0]
	if err != nil {
		// Should not happen (FreeNodes was checked), but requeue defensively.
		s.queue = append([]*refJobRecord{rec}, s.queue...)
		return
	}
	a := alloc.NewAllocation(s.topo, nodes)
	rec.Allocation = a
	rec.State = Running
	rec.StartedAt = eng.Now()
	rec.RoutersSpanned = a.NumRouters()
	rec.GroupsSpanned = a.NumGroups()
	s.busyCount += a.Size()
	s.running[rec.ID] = rec

	if rec.Spec.App != nil {
		if s.exec == nil {
			rec.AppErr = fmt.Errorf("sched: job %q requests workload %q but no executor is attached",
				rec.Spec.Name, rec.Spec.App.Workload)
		} else if err := s.startApp(rec); err != nil {
			rec.AppErr = err
		} else {
			// The application itself decides when the job finishes; no
			// duration event, no generator.
			return
		}
		// Fall through: represent the job with the traffic generator below.
	}
	if rec.Spec.Traffic.MessageBytes > 0 && rec.Spec.Nodes >= 2 {
		cfg := noise.GeneratorConfig{
			Pattern:         rec.Spec.Traffic.Pattern,
			MessageBytes:    rec.Spec.Traffic.MessageBytes,
			IntervalCycles:  rec.Spec.Traffic.IntervalCycles,
			Mode:            rec.Spec.Traffic.Mode,
			BurstIdleCycles: 200_000,
			Seed:            s.cfg.Seed*1_000_003 + int64(rec.ID),
		}
		if g, err := noise.FromAllocation(s.fabric, a, cfg); err != nil {
			// The job still holds its nodes for its duration; record that it
			// injects nothing instead of dropping the error on the floor.
			rec.TrafficErr = err
		} else {
			rec.generator = g
			g.Start(eng.Now() + rec.Spec.DurationCycles)
		}
	}
	eng.After(rec.Spec.DurationCycles, func() { s.finishJob(rec) })
}

// jobPackets sums the request packets injected by the job's nodes so far.
func (s *refScheduler) jobPackets(a *alloc.Allocation) uint64 {
	var total uint64
	for _, n := range a.Nodes() {
		total += s.fabric.NodeCounters(n).RequestPackets
	}
	return total
}

// startApp builds the communicator and launches the job's real application on
// the executor. The job finishes — and releases its nodes — when the last
// rank completes, at the workload's own pace.
func (s *refScheduler) startApp(rec *refJobRecord) error {
	app := rec.Spec.App
	w, err := workloads.New(app.Workload, rec.Allocation.Size(), app.MessageBytes)
	if err != nil {
		return err
	}
	mode := rec.Spec.Traffic.Mode
	provider := func(int) mpi.RoutingProvider { return mpi.StaticRouting{Mode: mode} }
	comm, err := mpi.NewComm(s.fabric, rec.Allocation, mpi.Config{Routing: provider})
	if err != nil {
		return err
	}
	iters := app.Iterations
	if iters < 1 {
		iters = 1
	}
	rec.comm = comm
	rec.RanApp = true
	rec.appPackets = s.jobPackets(rec.Allocation)
	comm.OnFinished(func() {
		for r := 0; r < comm.Size(); r++ {
			if err := comm.Rank(r).Err(); err != nil {
				rec.AppErr = fmt.Errorf("sched: job %q rank %d: %w", rec.Spec.Name, r, err)
				break
			}
		}
		rec.AppCycles = s.fabric.Engine().Now() - rec.StartedAt
		rec.AppPackets = s.jobPackets(rec.Allocation) - rec.appPackets
		s.finishJob(rec)
	})
	return comm.Start(s.exec, func(r *mpi.Rank) {
		for i := 0; i < iters; i++ {
			w.Run(r)
		}
	})
}

// finishJob releases the job's nodes and re-runs the scheduling pass.
func (s *refScheduler) finishJob(rec *refJobRecord) {
	s.accountUtilization()
	eng := s.fabric.Engine()
	rec.State = Finished
	rec.FinishedAt = eng.Now()
	if rec.generator != nil {
		rec.generator.Stop()
		rec.MessagesSent = rec.generator.MessagesSent()
	}
	s.nodes.Free(rec.Allocation.Nodes())
	s.busyCount -= rec.Allocation.Size()
	delete(s.running, rec.ID)
	s.trySchedule()
}

// Stats computes the summary over all submitted jobs. It should be called
// after the simulation has drained (all job completions executed).
func (s *refScheduler) Stats() Stats {
	s.accountUtilization()
	var st Stats
	st.Submitted = len(s.jobs)
	var waitSum float64
	var groupSum float64
	var lastEnd sim.Time
	for _, rec := range s.jobs {
		if rec.RanApp {
			st.AppJobs++
		}
		if rec.AppErr != nil {
			st.AppErrors++
		}
		if rec.TrafficErr != nil {
			st.TrafficErrors++
		}
		if rec.State == Queued {
			continue
		}
		st.Started++
		w := rec.WaitCycles()
		waitSum += float64(w)
		if w > st.MaxWaitCycles {
			st.MaxWaitCycles = w
		}
		groupSum += float64(rec.GroupsSpanned)
		if rec.State == Finished {
			st.Finished++
			if rec.FinishedAt > lastEnd {
				lastEnd = rec.FinishedAt
			}
		}
	}
	if st.Started > 0 {
		st.MeanWaitCycles = waitSum / float64(st.Started)
		st.MeanGroupsSpanned = groupSum / float64(st.Started)
	}
	// Utilization is computed over the scheduling window: up to the last job
	// completion once everything finished (the fabric may keep draining queued
	// packets afterwards, which is not the scheduler's busy time), otherwise up
	// to the last accounting point.
	window := s.lastAccounting
	if st.Finished == st.Submitted && lastEnd > 0 {
		window = lastEnd
	}
	if window > 0 {
		usable := uint64(window) * uint64(s.topo.NumNodes()-s.reservedCount)
		if usable > 0 {
			st.Utilization = float64(s.busyNodeCycles) / float64(usable)
		}
	}
	st.MakespanCycles = lastEnd
	return st
}

// SortedByStart returns the started jobs ordered by their start time, useful
// for rendering schedules.
func (s *refScheduler) SortedByStart() []*refJobRecord {
	out := make([]*refJobRecord, 0, len(s.jobs))
	for _, rec := range s.jobs {
		if rec.State != Queued {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartedAt < out[j].StartedAt })
	return out
}

// Event opcodes for the refOpenStream handler (the a operand of HandleEvent).
const (
	refOpArrival int64 = iota // b = client/stream index
	refOpFinish               // b = job slot index
)

// refOpenJob is one in-flight job in the slot arena. Slots are recycled through
// a free list and the nodes slice is reused across occupants, so the
// steady-state loop allocates nothing.
type refOpenJob struct {
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

// refOpenStream drives an always-on cluster simulation: jobs arrive from the
// spec's client streams indefinitely, are placed FCFS (no backfill — the
// queue discipline itself is a fairness baseline) against the live machine,
// and release their nodes when their drawn duration elapses. Unlike
// refScheduler, which keeps a record per job for post-hoc analysis, refOpenStream
// folds every completed job into fixed-size streaming digests immediately:
// per-SLO-class slowdown and wait distributions, per-tenant means for the
// Jain fairness index, utilization and fragmentation. Live heap is O(machine
// + concurrent jobs), independent of how many million job events the horizon
// spans.
type refOpenStream struct {
	fabric *network.Fabric
	topo   *topo.Topology
	cfg    OpenConfig
	rng    *rand.Rand

	clients []arrival.Client
	streams []*arrival.Stream
	// pending holds each stream's drawn-but-not-yet-delivered arrival; the
	// refOpArrival event for stream i consumes pending[i] and draws the next.
	pending []arrival.Arrival
	closed  []bool // stream has passed the admission cut

	nodes   *alloc.Tracker
	jobs    []refOpenJob
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

// newRefOpenStream builds an open-arrival run over the fabric's machine.
func newRefOpenStream(f *network.Fabric, spec arrival.Spec, cfg OpenConfig) (*refOpenStream, error) {
	if cfg.MaxJobEvents <= 0 && cfg.HorizonCycles <= 0 {
		return nil, fmt.Errorf("sched: open stream needs MaxJobEvents or HorizonCycles (it never stops otherwise)")
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
	o := &refOpenStream{
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
func (o *refOpenStream) Start() {
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
func (o *refOpenStream) Drive(ctx context.Context) error {
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
func (o *refOpenStream) advanceStream(eng *sim.Engine, i int) {
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
	eng.ScheduleCall(o.origin+a.At, o, refOpArrival, int64(i))
}

// HandleEvent dispatches the two event kinds: an arrival admits one job and
// re-arms its stream; a finish releases one job's nodes.
func (o *refOpenStream) HandleEvent(e *sim.Engine, op, arg int64) {
	switch op {
	case refOpArrival:
		o.handleArrival(e, int(arg))
	case refOpFinish:
		o.finishJob(e, int32(arg))
	default:
		panic(fmt.Sprintf("sched: open stream got unknown opcode %d", op))
	}
}

// handleArrival turns stream i's pending arrival into a queued job, runs a
// scheduling pass and draws the stream's next arrival.
func (o *refOpenStream) handleArrival(eng *sim.Engine, i int) {
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
func (o *refOpenStream) grabSlot() int32 {
	if n := len(o.free); n > 0 {
		slot := o.free[n-1]
		o.free = o.free[:n-1]
		return slot
	}
	o.jobs = append(o.jobs, refOpenJob{})
	return int32(len(o.jobs) - 1)
}

// trySchedule starts queued jobs FCFS while the head fits. No backfill: a
// blocked head blocks the queue, which is exactly the discipline whose
// per-class slowdowns the fairness accounting measures.
func (o *refOpenStream) trySchedule(eng *sim.Engine) {
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
func (o *refOpenStream) startJob(eng *sim.Engine, slot int32) {
	j := &o.jobs[slot]
	o.accountUtilization(eng)
	nodes, err := o.nodes.Allocate(refPolicyFor(o.cfg.Placement, false), int(j.nodesWant), o.rng, j.nodes[:0])
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
	if o.startedN%16 == 0 {
		o.frag.Add(o.nodes.Fragmentation())
	}
	if o.cfg.Traffic.MessageBytes > 0 && len(nodes) >= 2 {
		a := alloc.NewAllocation(o.topo, nodes)
		cfg := noise.GeneratorConfig{
			Pattern:         o.cfg.Traffic.Pattern,
			MessageBytes:    o.cfg.Traffic.MessageBytes,
			IntervalCycles:  o.cfg.Traffic.IntervalCycles,
			Mode:            o.cfg.Traffic.Mode,
			BurstIdleCycles: 200_000,
			Seed:            o.cfg.Seed*1_000_003 + int64(o.startedN),
		}
		if g, err := noise.FromAllocation(o.fabric, a, cfg); err == nil {
			j.alloc = a
			j.gen = g
			g.Start(eng.Now() + j.duration)
		}
	}
	eng.ScheduleCall(eng.Now()+j.duration, o, refOpFinish, int64(slot))
}

// finishJob releases the job's nodes, folds its wait and slowdown into the
// class and tenant accumulators, and recycles the slot.
func (o *refOpenStream) finishJob(eng *sim.Engine, slot int32) {
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
func (o *refOpenStream) accountUtilization(eng *sim.Engine) {
	now := eng.Now()
	if now > o.lastAccounting {
		o.busyNodeCycles += uint64(now-o.lastAccounting) * uint64(o.busyCount)
		o.lastAccounting = now
	}
}

// refPolicyFor maps the scheduler placement policy to an alloc.Policy.
func refPolicyFor(p AllocationPolicy, commIntensive bool) alloc.Policy {
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

// Stats computes the summary. Call after Drive has drained the run.
func (o *refOpenStream) Stats() OpenStats {
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
