// Package sched provides a batch-scheduler substrate for multi-job
// interference studies. The paper (§1, §6, §7) discusses job allocation as the
// main alternative to routing-based noise mitigation: contiguous allocations
// localize traffic but fragment the machine, random allocations balance load
// but expose every job to every other job's traffic, and hybrid policies
// (communication-intensive jobs scattered, others packed) try to combine both.
// On a Dragonfly none of them can fully isolate a job, because non-minimal
// adaptive routing sends packets through groups owned by other jobs.
//
// The Scheduler places jobs on the simulated fabric and records per-job wait
// times, placement fragmentation and machine utilization, so experiments can
// compare allocation policies against (and combined with) the routing-based
// mitigation the paper proposes. Jobs reach it as a closed list (Submit,
// GenerateMix). A running job's traffic is a synthetic background generator;
// jobs that run real applications side by side go through the facade's
// System.RunConcurrent instead.
package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"dragonfly/internal/alloc"
	"dragonfly/internal/network"
	"dragonfly/internal/noise"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
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
	// DurationCycles is the job's run time once started; backfilling reasons
	// with it as the job's walltime.
	DurationCycles sim.Time
	// CommIntensive marks the job as communication intensive; the hybrid
	// placement policy scatters such jobs and packs the others.
	CommIntensive bool
	// Traffic describes the background traffic the job generates while it
	// runs. MessageBytes == 0 disables traffic generation (a "compute only"
	// job that still occupies nodes).
	Traffic TrafficSpec
}

// TrafficSpec shapes the traffic a running job injects into the fabric. It
// routes with the Adaptive default, as production jobs do.
type TrafficSpec struct {
	// Pattern is the communication pattern (uniform, hotspot, bully, burst).
	Pattern noise.Pattern
	// MessageBytes is the size of each message; 0 disables traffic.
	MessageBytes int64
	// IntervalCycles is the mean gap between messages per node.
	IntervalCycles int64
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
	// Nodes is the node set assigned to the job in rank order (empty while
	// queued). It stays set after the job finishes; Scheduler.Spans reports
	// the placement fragmentation it implies.
	Nodes []topo.NodeID
	// MessagesSent is the number of messages the job's traffic generator
	// injected while it ran (0 for a job without traffic).
	MessagesSent uint64

	generator *noise.Generator
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

// Event opcodes of the scheduler's typed events; the operand is the record ID.
const (
	opArrival int64 = iota
	opFinish
)

// Scheduler places jobs on the fabric's nodes and drives their lifecycle with
// simulation events. It is not safe for concurrent use; all methods must be
// called from the simulation goroutine.
type Scheduler struct {
	fabric *network.Fabric
	topo   *topo.Topology
	cfg    Config
	rng    *rand.Rand

	// jobs holds every submitted record by ID.
	jobs    []*JobRecord
	queue   []*JobRecord
	started bool

	// nodes tracks the busy/free state of every machine node incrementally
	// (bitset plus free list) instead of rebuilding exclusion maps per pass.
	nodes *alloc.Tracker
	// busyCount is the number of nodes held by running jobs; reservedCount the
	// number excluded from scheduling (e.g. nodes of a measured foreground
	// job). Both are also marked busy in the tracker.
	busyCount     int
	reservedCount int

	// origin is the engine time when Start ran; every statistic measures
	// from it. lastEnd is the time of the last job completion (origin
	// before any).
	origin  sim.Time
	lastEnd sim.Time

	busyNodeCycles uint64
	lastAccounting sim.Time
}

// New builds a scheduler over the fabric's machine.
func New(f *network.Fabric, cfg Config) *Scheduler {
	return &Scheduler{
		fabric: f,
		topo:   f.Topology(),
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		nodes:  alloc.NewTracker(f.Topology()),
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

// FreeNodes returns the number of nodes that are neither busy nor reserved.
func (s *Scheduler) FreeNodes() int { return s.nodes.FreeNodes() }

// Spans returns how many routers and groups the job's nodes touch, the
// placement fragmentation of a started job (0, 0 while it is queued).
func (s *Scheduler) Spans(rec *JobRecord) (routers, groups int) {
	a := alloc.NewAllocation(s.topo, rec.Nodes)
	return a.NumRouters(), a.NumGroups()
}

// Submit registers a job. Jobs submitted before Start are scheduled at their
// arrival time; jobs submitted after Start are scheduled relative to the
// current time.
func (s *Scheduler) Submit(spec JobSpec) (*JobRecord, error) {
	if err := spec.Validate(s.topo.NumNodes() - s.reservedCount); err != nil {
		return nil, err
	}
	rec := &JobRecord{ID: len(s.jobs), Spec: spec}
	s.jobs = append(s.jobs, rec)
	if s.started {
		s.scheduleArrival(rec)
	}
	return rec, nil
}

// Start schedules the arrival events of every submitted job and sets the
// origin the statistics measure from. It must be called once, before or
// during the simulation run.
func (s *Scheduler) Start() {
	if s.started {
		return
	}
	s.started = true
	s.origin = s.fabric.Engine().Now()
	s.lastAccounting, s.lastEnd = s.origin, s.origin
	for _, rec := range s.jobs {
		s.scheduleArrival(rec)
	}
}

// scheduleArrival schedules the enqueue event of one job.
func (s *Scheduler) scheduleArrival(rec *JobRecord) {
	eng := s.fabric.Engine()
	eng.ScheduleCall(eng.Now()+rec.Spec.ArrivalCycles, s, opArrival, int64(rec.ID))
}

// HandleEvent implements sim.Handler for the job events: an arrival queues
// the job and runs a scheduling pass, a finish ends a job at its duration.
func (s *Scheduler) HandleEvent(e *sim.Engine, op, id int64) {
	rec := s.jobs[id]
	if op == opArrival {
		rec.SubmittedAt = e.Now()
		s.queue = append(s.queue, rec)
		s.trySchedule()
	} else {
		s.finishJob(rec)
	}
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

// trySchedule starts queued jobs FCFS while the head fits. With Backfill, a
// blocked head lets a later job start now if it fits and is guaranteed to
// finish before the head could possibly start: by the shadow time, the
// earliest estimated completion of any running job (now when none runs).
func (s *Scheduler) trySchedule() {
	for len(s.queue) > 0 {
		i := 0
		if s.queue[0].Spec.Nodes > s.FreeNodes() {
			if i = s.backfillCandidate(); i < 0 {
				return
			}
		}
		rec := s.queue[i]
		s.queue = slices.Delete(s.queue, i, i+1)
		s.startJob(rec)
	}
}

// backfillCandidate returns the queue index of the first job conservative
// backfill may start now, or -1.
func (s *Scheduler) backfillCandidate() int {
	if !s.cfg.Backfill {
		return -1
	}
	now := s.fabric.Engine().Now()
	shadow := sim.Time(-1)
	for _, rec := range s.jobs {
		if end := rec.StartedAt + rec.Spec.DurationCycles; rec.State == Running && (shadow < 0 || end < shadow) {
			shadow = end
		}
	}
	if shadow < 0 {
		shadow = now
	}
	for i := 1; i < len(s.queue); i++ {
		if cand := s.queue[i]; cand.Spec.Nodes <= s.FreeNodes() && now+cand.Spec.DurationCycles <= shadow {
			return i
		}
	}
	return -1
}

// startJob allocates nodes, starts the job's traffic generator and schedules
// its completion.
func (s *Scheduler) startJob(rec *JobRecord) {
	s.accountUtilization()
	eng := s.fabric.Engine()
	nodes, err := s.nodes.Allocate(s.allocPolicyFor(rec.Spec), rec.Spec.Nodes, s.rng, nil)
	if err != nil {
		panic(fmt.Sprintf("sched: job %q fit the free nodes but could not be placed: %v", rec.Spec.Name, err))
	}
	rec.Nodes = nodes
	rec.State = Running
	rec.StartedAt = eng.Now()
	s.busyCount += len(nodes)

	if rec.Spec.Traffic.MessageBytes > 0 && len(nodes) >= 2 {
		cfg := noise.GeneratorConfig{
			Pattern:         rec.Spec.Traffic.Pattern,
			MessageBytes:    rec.Spec.Traffic.MessageBytes,
			IntervalCycles:  rec.Spec.Traffic.IntervalCycles,
			BurstIdleCycles: 200_000,
			Seed:            s.cfg.Seed*1_000_003 + int64(rec.ID),
		}
		rec.generator = noise.FromAllocation(s.fabric, alloc.NewAllocation(s.topo, nodes), cfg)
		rec.generator.Start(eng.Now() + rec.Spec.DurationCycles)
	}
	eng.ScheduleCall(eng.Now()+rec.Spec.DurationCycles, s, opFinish, int64(rec.ID))
}

// finishJob releases the job's nodes and re-runs the scheduling pass.
func (s *Scheduler) finishJob(rec *JobRecord) {
	s.accountUtilization()
	rec.State = Finished
	rec.FinishedAt = s.fabric.Engine().Now()
	s.lastEnd = rec.FinishedAt
	if rec.generator != nil {
		rec.generator.Stop()
		rec.MessagesSent = rec.generator.MessagesSent()
	}
	s.nodes.Free(rec.Nodes)
	s.busyCount -= len(rec.Nodes)
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
	// Utilization is busy node-cycles divided by schedulable node-cycles over
	// the observation window: from Start to the last job completion once
	// every job finished, else to the last accounting event.
	Utilization float64
	// MakespanCycles is the time between Start and the last job completion.
	MakespanCycles sim.Time
}

// Stats computes the summary over all submitted jobs. It should be called
// after the simulation has drained (all job completions executed).
func (s *Scheduler) Stats() Stats {
	s.accountUtilization()
	st := Stats{Submitted: len(s.jobs)}
	var waitSum, groupSum float64
	for _, rec := range s.jobs {
		if rec.State == Queued {
			continue
		}
		st.Started++
		w := rec.WaitCycles()
		waitSum += float64(w)
		st.MaxWaitCycles = max(st.MaxWaitCycles, w)
		_, groups := s.Spans(rec)
		groupSum += float64(groups)
		if rec.State == Finished {
			st.Finished++
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
	end := s.lastAccounting
	if st.Finished == st.Submitted && s.lastEnd > s.origin {
		end = s.lastEnd
	}
	if usable := uint64(s.topo.NumNodes() - s.reservedCount); end > s.origin && usable > 0 {
		st.Utilization = float64(s.busyNodeCycles) / float64(uint64(end-s.origin)*usable)
	}
	st.MakespanCycles = s.lastEnd - s.origin
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
