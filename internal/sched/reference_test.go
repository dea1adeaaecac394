package sched

// The reference scheduler: the batch Scheduler as it was while it kept its
// own FCFS queue, placement mapping, utilization integral and job start and
// finish path. FuzzSchedule runs it against the one Scheduler core and
// requires the same schedules, traffic and statistics.

import (
	"math/rand"
	"sort"

	"dragonfly/internal/alloc"
	"dragonfly/internal/network"
	"dragonfly/internal/noise"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
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
	// MessagesSent is the number of messages the job's traffic generator
	// injected while it ran (0 for a job without traffic).
	MessagesSent uint64

	generator *noise.Generator
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

	if rec.Spec.Traffic.MessageBytes > 0 && rec.Spec.Nodes >= 2 {
		cfg := noise.GeneratorConfig{
			Pattern:         rec.Spec.Traffic.Pattern,
			MessageBytes:    rec.Spec.Traffic.MessageBytes,
			IntervalCycles:  rec.Spec.Traffic.IntervalCycles,
			BurstIdleCycles: 200_000,
			Seed:            s.cfg.Seed*1_000_003 + int64(rec.ID),
		}
		rec.generator = noise.FromAllocation(s.fabric, a, cfg)
		rec.generator.Start(eng.Now() + rec.Spec.DurationCycles)
	}
	eng.After(rec.Spec.DurationCycles, func() { s.finishJob(rec) })
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
