// Package dragonfly is the public face of the simulator: one composable API
// to stand up a simulated Aries/Dragonfly system and drive jobs on it. It
// replaces the ad-hoc seven-step wiring (topology → routing policy → event
// engine → fabric → allocation → MPI → selector) that every consumer used to
// repeat by hand.
//
// The three nouns are System, Job and Result:
//
//	sys, err := dragonfly.New(
//		dragonfly.WithGeometry(dragonfly.SmallGeometry(4)),
//		dragonfly.WithSeed(42),
//	)
//	job, err := sys.Allocate(dragonfly.GroupStriped, 16)
//	res, err := job.Run(w, dragonfly.RunOptions{
//		Routing:    dragonfly.StaticRouting(dragonfly.AdaptiveHighBias),
//		Iterations: 3,
//	})
//
// A System owns a private topology, discrete-event engine, fabric and random
// stream, all derived from one seed, so two Systems built from the same
// options behave identically. Jobs allocated from a System exclude each
// other's nodes; background noise started with StartNoise (or WithNoise) is
// placed on the remaining nodes. A Result carries the execution times, the
// job-summed NIC counter deltas, router tile counter deltas, the
// application-aware selector statistics.
//
// Everything heavier — the experiment suite, the parallel trial harness, the
// batch scheduler, trace record/replay — composes with this package through
// the escape hatches System.Topology, System.Engine and System.Fabric rather
// than replacing it.
package dragonfly

import (
	"errors"
	"fmt"
	"math/rand"

	"dragonfly/internal/alloc"
	"dragonfly/internal/network"
	"dragonfly/internal/noise"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// DefaultHorizon is the deadline handed to background noise generators;
// simulated runs complete far before it.
const DefaultHorizon sim.Time = 1 << 50

// ErrJobTooLarge is returned (wrapped) by System.Allocate when the requested
// job does not fit on the machine's free nodes. Callers that prefer the old
// clamp-to-machine-size behaviour must clamp explicitly; the facade never
// silently truncates a job.
var ErrJobTooLarge = errors.New("dragonfly: job too large")

// System is one simulated Dragonfly machine: topology, routing policy,
// discrete-event engine, fabric and the random stream that places jobs on it.
// A System is not safe for concurrent use; build one System per goroutine
// (the trial harness does exactly that).
type System struct {
	cfg       config
	topo      *topo.Topology
	policy    *routing.Policy
	engine    *sim.Engine
	fabric    *network.Fabric
	rng       *rand.Rand
	decisions *routing.DecisionTrace

	// used tracks every node handed out to a job or a background noise
	// generator, so later allocations land on free nodes.
	used map[topo.NodeID]bool
	// epoch counts Resets; jobs remember the epoch they were allocated in so
	// running a stale job after a Reset fails loudly instead of measuring a
	// rewound machine.
	epoch uint64
	// pendingNoise is the WithNoise spec, started when the first job is
	// allocated (so the background job can exclude the measured job's nodes).
	pendingNoise *NoiseConfig
	noiseGens    []*noise.Generator
}

// New builds a simulated system from the given options. With no options it
// builds a small four-group machine seeded with 1. The construction order
// (topology, policy, engine, fabric, allocation RNG) is fixed and
// deterministic: two Systems built from equal options are byte-identical.
func New(opts ...Option) (*System, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	t, err := topo.New(cfg.geometry)
	if err != nil {
		return nil, err
	}
	pol, err := routing.NewPolicy(t, cfg.routing)
	if err != nil {
		return nil, err
	}
	engine := sim.NewEngine(cfg.seed)
	fab, err := network.New(engine, t, pol, cfg.network)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:    cfg,
		topo:   t,
		policy: pol,
		engine: engine,
		fabric: fab,
		rng:    rand.New(rand.NewSource(cfg.seed)),
		used:   make(map[topo.NodeID]bool),
	}
	if cfg.decisionTrace > 0 {
		tr, err := routing.NewDecisionTrace(t.Config().Groups, cfg.decisionTrace, routing.DefaultTraceCapacity)
		if err != nil {
			return nil, err
		}
		pol.SetDecisionTrace(tr)
		s.decisions = tr
	}
	if cfg.noise != nil {
		spec := *cfg.noise
		s.pendingNoise = &spec
	}
	return s, nil
}

// Reset rewinds the system to the state New would have produced with the same
// options and the given seed, without re-deriving the topology or the routing
// tables: the event engine drops all pending events and restarts its clock
// and random stream, the fabric rewinds link/NIC state and counters, jobs and
// background noise are forgotten, and a WithNoise spec is re-armed for the
// next allocation. A reset system is byte-identical in behaviour to a freshly
// built one — the trial harness relies on this to run sweeps of thousands of
// trials over one constructed machine.
//
// Jobs allocated before the Reset must not be used afterwards.
func (s *System) Reset(seed int64) error {
	s.cfg.seed = seed
	s.epoch++
	s.engine.Reset(seed)
	s.fabric.Reset()
	s.rng.Seed(seed)
	clear(s.used)
	if s.decisions != nil {
		s.decisions.Reset()
	}
	s.noiseGens = s.noiseGens[:0]
	s.pendingNoise = nil
	if s.cfg.noise != nil {
		spec := *s.cfg.noise
		s.pendingNoise = &spec
	}
	return nil
}

// Topology returns the underlying topology (read-only escape hatch).
func (s *System) Topology() *topo.Topology { return s.topo }

// Engine returns the discrete-event engine. Use it to drive simulations that
// do not go through Job.Run (for example the batch scheduler): schedule work,
// then call Engine().Run() to drain the event queue.
func (s *System) Engine() *sim.Engine { return s.engine }

// Fabric returns the simulated network, for subsystems that attach to it
// directly (telemetry collectors, message logs, the batch scheduler).
func (s *System) Fabric() *network.Fabric { return s.fabric }

// Seed returns the seed the system was built from.
func (s *System) Seed() int64 { return s.cfg.seed }

// Now returns the current simulated time.
func (s *System) Now() sim.Time { return s.engine.Now() }

// DecisionTrace returns the routing decision recorder installed by
// WithDecisionTrace, or nil when tracing is off. Reset clears it along with
// the rest of the system state.
func (s *System) DecisionTrace() *DecisionTrace { return s.decisions }

// FreeNodes returns the number of nodes not yet handed to a job or a noise
// generator.
func (s *System) FreeNodes() int { return s.topo.NumNodes() - len(s.used) }

// MachineCounters sums the NIC counters of every node of the machine.
func (s *System) MachineCounters() Counters {
	var total Counters
	for n := 0; n < s.topo.NumNodes(); n++ {
		total.Add(s.fabric.NodeCounters(topo.NodeID(n)))
	}
	return total
}

// Allocate places an n-node job with the given policy on free nodes. It never
// clamps: a job larger than the free nodes fails with an error wrapping
// ErrJobTooLarge (callers that want a machine-filling job instead pass
// min(n, FreeNodes())).
func (s *System) Allocate(policy Policy, n int) (*Job, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dragonfly: job size must be positive, got %d", n)
	}
	if free := s.FreeNodes(); n > free {
		return nil, fmt.Errorf("%w: requested %d nodes, %d free of %d",
			ErrJobTooLarge, n, free, s.topo.NumNodes())
	}
	a, err := alloc.Allocate(s.topo, policy, n, s.rng, s.used)
	if err != nil {
		return nil, err
	}
	return s.adopt(a), nil
}

// AllocatePair returns a two-node job of the given topological class (the
// paper's inter-nodes / inter-blades / inter-chassis / inter-groups cases).
// The pair nodes are picked deterministically from the topology, so the call
// fails when a previous allocation already occupies them.
func (s *System) AllocatePair(class AllocationClass) (*Job, error) {
	a, b, err := alloc.PairForClass(s.topo, class)
	if err != nil {
		return nil, err
	}
	for _, n := range []topo.NodeID{a, b} {
		if s.used[n] {
			return nil, fmt.Errorf("dragonfly: pair node %d for class %s is already allocated", n, class)
		}
	}
	return s.adopt(alloc.NewAllocation(s.topo, []topo.NodeID{a, b})), nil
}

// JobFromNodes pins a job to explicit nodes (repeats allowed: several ranks
// on one node). It is the escape hatch for externally-decided placements: the
// nodes are registered as used like any other allocation, but — unlike
// Allocate and AllocatePair — no disjointness check is made against earlier
// jobs, because the caller owns the placement.
func (s *System) JobFromNodes(nodes []NodeID) *Job {
	return s.adopt(alloc.NewAllocation(s.topo, nodes))
}

// adopt registers an allocation's nodes as used, wraps it in a Job and starts
// the WithNoise background job on the first allocation.
func (s *System) adopt(a *alloc.Allocation) *Job {
	for _, n := range a.Nodes() {
		s.used[n] = true
	}
	j := &Job{sys: s, alloc: a, epoch: s.epoch}
	if s.pendingNoise != nil {
		spec := *s.pendingNoise
		s.pendingNoise = nil
		s.StartNoise(spec)
	}
	return j
}

// NoiseConfig declares a background (interfering) job. All values are
// concrete; the generator seed is derived from the system seed and the
// pattern, so equal systems produce equal noise.
type NoiseConfig struct {
	// Pattern is the traffic pattern of the background job.
	Pattern NoisePattern
	// Nodes is the requested size of the background job; it is capped to the
	// free nodes of the machine, and no job is started when fewer than two
	// nodes remain.
	Nodes int
	// IntervalCycles overrides the mean inter-message gap when > 0.
	IntervalCycles int64
	// MessageBytes overrides the background message size when > 0.
	MessageBytes int64
}

// StartNoise places a background job on nodes disjoint from every allocation
// made through the system and starts it until DefaultHorizon. Placements
// decided outside the system must be registered first (JobFromNodes) so the
// noise avoids them. The requested size is capped to the free nodes; it
// returns nil when fewer than two nodes remain — small test topologies — or
// when placement fails; background noise is best-effort by design. Callers
// that consider an undersized background job an error should check
// FreeNodes() up front (cmd/dragonsim does).
func (s *System) StartNoise(cfg NoiseConfig) *noise.Generator {
	n := cfg.Nodes
	if free := s.FreeNodes(); n > free {
		n = free
	}
	if n < 2 {
		return nil
	}
	a, err := alloc.Allocate(s.topo, alloc.RandomScatter, n, s.rng, s.used)
	if err != nil {
		return nil
	}
	gcfg := noise.DefaultGeneratorConfig()
	gcfg.Pattern = cfg.Pattern
	if cfg.IntervalCycles > 0 {
		gcfg.IntervalCycles = cfg.IntervalCycles
	}
	if cfg.MessageBytes > 0 {
		gcfg.MessageBytes = cfg.MessageBytes
	}
	// The first generator of a pattern derives its seed exactly as the trial
	// harness historically did (preserving byte-identical experiment output);
	// later generators fold in their index so same-pattern background jobs
	// draw independent streams instead of moving in lockstep.
	seed := mix64(uint64(s.cfg.seed)) ^ uint64(cfg.Pattern)
	if idx := len(s.noiseGens); idx > 0 {
		seed = mix64(seed ^ uint64(idx))
	}
	gcfg.Seed = int64(seed)
	g, err := noise.FromAllocation(s.fabric, a, gcfg)
	if err != nil {
		return nil
	}
	for _, node := range a.Nodes() {
		s.used[node] = true
	}
	g.Start(DefaultHorizon)
	s.noiseGens = append(s.noiseGens, g)
	return g
}

// NoiseGenerators returns the background generators started on this system.
func (s *System) NoiseGenerators() []*noise.Generator { return s.noiseGens }

// mix64 is the splitmix64 finalizer, the same bijective avalanche the trial
// harness uses for seed derivation, so a System built by the harness derives
// the exact same noise seeds the harness historically did.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
