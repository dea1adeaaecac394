// Package sched provides a batch-scheduler substrate for multi-job
// interference studies. The paper (§1, §6, §7) discusses job allocation as the
// main alternative to routing-based noise mitigation: contiguous allocations
// localize traffic but fragment the machine, random allocations balance load
// but expose every job to every other job's traffic, and hybrid policies
// (communication-intensive jobs scattered, others packed) try to combine both.
// On a Dragonfly none of them can fully isolate a job, because non-minimal
// adaptive routing sends packets through groups owned by other jobs.
//
// The scheduler places jobs on the simulated fabric and records per-job wait
// times, placement fragmentation and machine utilization, so experiments can
// compare allocation policies against (and combined with) the routing-based
// mitigation the paper proposes. A running job's traffic is represented
// either by a synthetic background generator (the historical stand-in) or —
// when the spec carries an App and an executor is attached — by the real
// workload-driven application itself, co-scheduled with every other job's
// ranks on the shared fabric.
package sched

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"dragonfly/internal/alloc"
	"dragonfly/internal/mpi"
	"dragonfly/internal/network"
	"dragonfly/internal/noise"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
	"dragonfly/internal/workloads"
)

// AllocationPolicy selects how the scheduler places the nodes of a job.
type AllocationPolicy uint8

const (
	// PlaceContiguous packs every job onto the lowest-numbered free nodes.
	PlaceContiguous AllocationPolicy = iota
	// PlaceRandom scatters every job uniformly over the free nodes.
	PlaceRandom
	// PlaceGroupStriped stripes every job round-robin over the groups.
	PlaceGroupStriped
	// PlaceHybrid scatters communication-intensive jobs and packs the rest,
	// the policy proposed by the interference literature the paper discusses.
	PlaceHybrid
)

// String returns the policy name.
func (p AllocationPolicy) String() string {
	switch p {
	case PlaceContiguous:
		return "contiguous"
	case PlaceRandom:
		return "random"
	case PlaceGroupStriped:
		return "group-striped"
	case PlaceHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("AllocationPolicy(%d)", uint8(p))
	}
}

// ParseAllocationPolicy converts a policy name to an AllocationPolicy.
func ParseAllocationPolicy(s string) (AllocationPolicy, error) {
	switch s {
	case "contiguous":
		return PlaceContiguous, nil
	case "random":
		return PlaceRandom, nil
	case "group-striped", "striped":
		return PlaceGroupStriped, nil
	case "hybrid":
		return PlaceHybrid, nil
	default:
		return PlaceContiguous, fmt.Errorf("sched: unknown allocation policy %q", s)
	}
}

// JobSpec describes one batch job submitted to the scheduler.
type JobSpec struct {
	// Name identifies the job in records and logs.
	Name string
	// Nodes is the number of nodes the job needs.
	Nodes int
	// ArrivalCycles is the submission time relative to Scheduler.Start.
	ArrivalCycles sim.Time
	// DurationCycles is the job's run time once started. For workload-driven
	// jobs (App set, executor attached) it is only the walltime *estimate*
	// backfilling reasons with: the job actually releases its nodes when the
	// workload completes.
	DurationCycles sim.Time
	// CommIntensive marks the job as communication intensive; the hybrid
	// placement policy scatters such jobs and packs the others.
	CommIntensive bool
	// Traffic describes the background traffic the job generates while it
	// runs. MessageBytes == 0 disables traffic generation (a "compute only"
	// job that still occupies nodes).
	Traffic TrafficSpec
	// App, if non-nil, runs a real workload-driven application on the job's
	// nodes instead of representing the job with a synthetic traffic
	// generator. It requires an executor (AttachExecutor); without one — or
	// when the workload cannot be built — the scheduler falls back to the
	// Traffic generator and records why in the JobRecord.
	App *AppSpec
}

// AppSpec describes the real application a workload-driven batch job runs.
type AppSpec struct {
	// Workload is the registered workload name (see workloads.New), e.g.
	// "alltoall", "halo3d", "allreduce".
	Workload string
	// MessageBytes is the workload's size parameter as workloads.New
	// interprets it: per-message bytes for the collectives, the domain edge
	// for the stencil workloads (halo3d, sweep3d).
	MessageBytes int64
	// Iterations is how many times each rank repeats the workload body
	// (minimum 1).
	Iterations int
	// Routing builds the per-rank routing provider; nil applies
	// Traffic.Mode statically to every message.
	Routing func(rank int) mpi.RoutingProvider
}

// TrafficSpec shapes the traffic a running job injects into the fabric.
type TrafficSpec struct {
	// Pattern is the communication pattern (uniform, hotspot, bully, burst).
	Pattern noise.Pattern
	// MessageBytes is the size of each message; 0 disables traffic.
	MessageBytes int64
	// IntervalCycles is the mean gap between messages per node.
	IntervalCycles int64
	// Mode is the routing mode the job's traffic uses.
	Mode routing.Mode
}

// Validate reports whether the job spec is usable on a machine of the given
// size.
func (j JobSpec) Validate(machineNodes int) error {
	switch {
	case j.Nodes <= 0:
		return fmt.Errorf("sched: job %q requests %d nodes", j.Name, j.Nodes)
	case j.Nodes > machineNodes:
		return fmt.Errorf("sched: job %q requests %d nodes but the machine has %d", j.Name, j.Nodes, machineNodes)
	case j.ArrivalCycles < 0:
		return fmt.Errorf("sched: job %q has negative arrival time", j.Name)
	case j.DurationCycles <= 0:
		return fmt.Errorf("sched: job %q has non-positive duration", j.Name)
	case j.Traffic.MessageBytes > 0 && j.Traffic.IntervalCycles <= 0:
		return fmt.Errorf("sched: job %q generates traffic but has no interval", j.Name)
	}
	return nil
}

// JobState tracks a job through its lifetime.
type JobState uint8

const (
	// Queued means the job has been submitted but not yet started.
	Queued JobState = iota
	// Running means the job currently holds nodes.
	Running
	// Finished means the job completed and released its nodes.
	Finished
)

// String returns the state name.
func (s JobState) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Finished:
		return "finished"
	default:
		return fmt.Sprintf("JobState(%d)", uint8(s))
	}
}

// JobRecord is the scheduler's bookkeeping for one job.
type JobRecord struct {
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
func (r *JobRecord) WaitCycles() sim.Time {
	if r.State == Queued {
		return 0
	}
	return r.StartedAt - r.SubmittedAt
}

// Config configures the scheduler.
type Config struct {
	// Placement is the allocation policy applied to every job.
	Placement AllocationPolicy
	// Backfill lets a queued job start ahead of the queue head when it fits in
	// the currently free nodes and would finish before the head job could
	// start anyway (conservative EASY-style backfilling based on the known
	// durations of running jobs).
	Backfill bool
	// Seed seeds the placement random stream.
	Seed int64
}

// DefaultConfig returns a contiguous, non-backfilling scheduler.
func DefaultConfig() Config {
	return Config{Placement: PlaceContiguous, Seed: 1}
}

// Scheduler places jobs on the fabric's nodes and drives their lifecycle with
// simulation events. It is not safe for concurrent use; all methods must be
// called from the simulation goroutine.
type Scheduler struct {
	fabric *network.Fabric
	topo   *topo.Topology
	cfg    Config
	rng    *rand.Rand

	jobs    []*JobRecord
	queue   []*JobRecord
	running map[int]*JobRecord
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
func New(f *network.Fabric, cfg Config) *Scheduler {
	return &Scheduler{
		fabric:  f,
		topo:    f.Topology(),
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		running: make(map[int]*JobRecord),
		nodes:   alloc.NewTracker(f.Topology()),
	}
}

// AttachExecutor hands the scheduler a cooperative rank executor. With one
// attached, jobs whose spec carries an App run their real application on the
// fabric — actual workload-driven traffic, completion when the workload
// completes — instead of being approximated by a traffic generator. Drive the
// run with Drive (or the executor's Drain) rather than Engine.Run, so the
// application ranks interleave with the scheduler's events.
func (s *Scheduler) AttachExecutor(x *mpi.Scheduler) { s.exec = x }

// Drive runs the simulation to completion: through the attached executor when
// one is present (so workload-driven jobs co-run with the event queue), with
// a plain engine run otherwise. The context, when non-nil, cancels the run.
// Drive owns the executor's coroutines: it shuts the executor down on return,
// releasing the ranks of an aborted drain and the idle pool of a completed one.
func (s *Scheduler) Drive(ctx context.Context) error {
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
func (s *Scheduler) Reserve(nodes []topo.NodeID) {
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
func (s *Scheduler) Jobs() []*JobRecord {
	return append([]*JobRecord(nil), s.jobs...)
}

// QueueLength returns the number of jobs currently waiting.
func (s *Scheduler) QueueLength() int { return len(s.queue) }

// RunningJobs returns the number of jobs currently holding nodes.
func (s *Scheduler) RunningJobs() int { return len(s.running) }

// FreeNodes returns the number of nodes that are neither busy nor reserved.
func (s *Scheduler) FreeNodes() int { return s.nodes.FreeNodes() }

// Fragmentation returns how shattered the free capacity currently is
// (1 − largest free run / free nodes; see alloc.Tracker.Fragmentation).
func (s *Scheduler) Fragmentation() float64 { return s.nodes.Fragmentation() }

// Submit registers a job. Jobs submitted before Start are scheduled at their
// arrival time; jobs submitted after Start are scheduled relative to the
// current time.
func (s *Scheduler) Submit(spec JobSpec) (*JobRecord, error) {
	if err := spec.Validate(s.topo.NumNodes() - s.reservedCount); err != nil {
		return nil, err
	}
	rec := &JobRecord{ID: len(s.jobs), Spec: spec, State: Queued}
	s.jobs = append(s.jobs, rec)
	if s.started {
		s.scheduleArrival(rec)
	}
	return rec, nil
}

// MustSubmit is like Submit but panics on error.
func (s *Scheduler) MustSubmit(spec JobSpec) *JobRecord {
	rec, err := s.Submit(spec)
	if err != nil {
		panic(err)
	}
	return rec
}

// Start schedules the arrival events of every submitted job. It must be called
// once, before or during the simulation run.
func (s *Scheduler) Start() {
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
func (s *Scheduler) scheduleArrival(rec *JobRecord) {
	eng := s.fabric.Engine()
	eng.Schedule(eng.Now()+rec.Spec.ArrivalCycles, func() {
		rec.SubmittedAt = eng.Now()
		s.queue = append(s.queue, rec)
		s.trySchedule()
	})
}

// accountUtilization integrates busy node-cycles up to the current time.
func (s *Scheduler) accountUtilization() {
	now := s.fabric.Engine().Now()
	if now > s.lastAccounting {
		s.busyNodeCycles += uint64(now-s.lastAccounting) * uint64(s.busyCount)
		s.lastAccounting = now
	}
}

// allocPolicyFor maps the scheduler placement policy to an alloc.Policy for
// one specific job.
func (s *Scheduler) allocPolicyFor(spec JobSpec) alloc.Policy {
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
func (s *Scheduler) earliestCompletion() sim.Time {
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
func (s *Scheduler) trySchedule() {
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
func (s *Scheduler) startJob(rec *JobRecord) {
	s.accountUtilization()
	eng := s.fabric.Engine()
	nodes, err := s.nodes.Allocate(s.allocPolicyFor(rec.Spec), rec.Spec.Nodes, s.rng, s.scratch[:0])
	s.scratch = nodes[:0]
	if err != nil {
		// Should not happen (FreeNodes was checked), but requeue defensively.
		s.queue = append([]*JobRecord{rec}, s.queue...)
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
			Pattern:             rec.Spec.Traffic.Pattern,
			MessageBytes:        rec.Spec.Traffic.MessageBytes,
			IntervalCycles:      rec.Spec.Traffic.IntervalCycles,
			JitterFraction:      0.5,
			Mode:                rec.Spec.Traffic.Mode,
			BurstLengthMessages: 32,
			BurstIdleCycles:     200_000,
			Seed:                s.cfg.Seed*1_000_003 + int64(rec.ID),
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
func (s *Scheduler) jobPackets(a *alloc.Allocation) uint64 {
	var total uint64
	for _, n := range a.Nodes() {
		total += s.fabric.NodeCounters(n).RequestPackets
	}
	return total
}

// startApp builds the communicator and launches the job's real application on
// the executor. The job finishes — and releases its nodes — when the last
// rank completes, at the workload's own pace.
func (s *Scheduler) startApp(rec *JobRecord) error {
	app := rec.Spec.App
	w, err := workloads.New(app.Workload, rec.Allocation.Size(), app.MessageBytes)
	if err != nil {
		return err
	}
	provider := app.Routing
	if provider == nil {
		mode := rec.Spec.Traffic.Mode
		provider = func(int) mpi.RoutingProvider { return mpi.StaticRouting{Mode: mode} }
	}
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
func (s *Scheduler) finishJob(rec *JobRecord) {
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

// Stats summarizes a scheduling run.
type Stats struct {
	// Submitted, Started and Finished count jobs per lifecycle state reached.
	Submitted int
	Started   int
	Finished  int
	// MeanWaitCycles and MaxWaitCycles summarize queue waiting times of
	// started jobs.
	MeanWaitCycles float64
	MaxWaitCycles  sim.Time
	// MeanGroupsSpanned is the average placement fragmentation of started jobs.
	MeanGroupsSpanned float64
	// Utilization is busy node-cycles divided by machine node-cycles over the
	// observation window (Start to the last accounting event).
	Utilization float64
	// MakespanCycles is the time between Start and the last job completion.
	MakespanCycles sim.Time
	// AppJobs counts jobs that ran as real workload-driven applications.
	AppJobs int
	// AppErrors and TrafficErrors count jobs whose application or traffic
	// generator could not run as specified (see JobRecord.AppErr/TrafficErr).
	AppErrors     int
	TrafficErrors int
}

// Stats computes the summary over all submitted jobs. It should be called
// after the simulation has drained (all job completions executed).
func (s *Scheduler) Stats() Stats {
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
func (s *Scheduler) SortedByStart() []*JobRecord {
	out := make([]*JobRecord, 0, len(s.jobs))
	for _, rec := range s.jobs {
		if rec.State != Queued {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartedAt < out[j].StartedAt })
	return out
}
