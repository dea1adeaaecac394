package harness

import (
	"context"
	"fmt"
	"math/rand"

	"dragonfly"
	"dragonfly/internal/alloc"
	"dragonfly/internal/counters"
	"dragonfly/internal/mpi"
	"dragonfly/internal/network"
	"dragonfly/internal/noise"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
	"dragonfly/internal/workloads"
)

// Env is the private simulated system of one trial. It is a thin adapter over
// the public dragonfly.System facade: the trial harness contributes only the
// seed derivation and the measurement loop, while the system wiring
// (topology, engine, fabric, allocation RNG) comes from dragonfly.New. An Env
// is built fresh per trial and never shared, so everything on it may be used
// without synchronization inside the trial body.
type Env struct {
	// Spec is the declaration this environment was built from.
	Spec TrialSpec
	// Seed is the derived trial seed (see TrialSeed).
	Seed int64
	// Sys is the public-facade system the trial runs on. Trial bodies may use
	// it directly (System.JobFromNodes + Job.Run cover most measurements).
	Sys *dragonfly.System
	// Topo is the constructed topology (same as Sys.Topology()).
	Topo *topo.Topology
	// Engine is the trial's discrete-event engine (same as Sys.Engine()).
	Engine *sim.Engine
	// Fabric is the simulated network (same as Sys.Fabric()).
	Fabric *network.Fabric
	// Rng drives allocation placement and other trial-local choices (same
	// stream as Sys.Rand()).
	Rng *rand.Rand
}

// NewEnv builds the simulated system a trial runs on.
func NewEnv(spec TrialSpec, seed int64) (*Env, error) {
	return newEnv(spec, seed, nil)
}

// newEnv builds an Env, drawing the System from the worker's pool when one is
// provided (reusing a same-configuration System via Reset) and building a
// fresh one otherwise.
func newEnv(spec TrialSpec, seed int64, pool *systemPool) (*Env, error) {
	sys, err := pool.acquire(spec, seed)
	if err != nil {
		return nil, err
	}
	return &Env{
		Spec:   spec,
		Seed:   seed,
		Sys:    sys,
		Topo:   sys.Topology(),
		Engine: sys.Engine(),
		Fabric: sys.Fabric(),
		Rng:    sys.Rand(),
	}, nil
}

// AllocateJob places an n-node job with the given policy.
//
// Unlike dragonfly.System.Allocate (which fails with ErrJobTooLarge), the
// request is clamped to the free nodes of the machine. This clamp is
// load-bearing for the experiment runners: suite-level flags like -nodes
// apply one job size to several geometries, and trials on the smaller
// geometries are expected to run machine-filling jobs rather than fail.
// TestAllocateJobClampsToMachine pins the behaviour.
func (e *Env) AllocateJob(policy alloc.Policy, n int) (*alloc.Allocation, error) {
	if free := e.Sys.FreeNodes(); n > free {
		n = free
	}
	j, err := e.Sys.Allocate(policy, n)
	if err != nil {
		return nil, err
	}
	return j.Allocation(), nil
}

// AllocatePair returns a two-node allocation of the given topological class.
func (e *Env) AllocatePair(class topo.AllocationClass) (*alloc.Allocation, error) {
	j, err := e.Sys.AllocatePair(class)
	if err != nil {
		return nil, err
	}
	return j.Allocation(), nil
}

// StartNoise places a background job on nodes disjoint from the excluded
// allocations and starts it until DefaultHorizon. It returns nil when there
// is not enough room for a background job (small test topologies).
//
// Allocations built outside the system (alloc.Allocate / alloc.NewAllocation,
// as some trial bodies do) are registered with it here — via JobFromNodes —
// so their nodes stay excluded from the noise placement and from any later
// allocation on this Env.
func (e *Env) StartNoise(spec NoiseSpec, exclude ...*alloc.Allocation) *noise.Generator {
	for _, a := range exclude {
		if a == nil {
			continue
		}
		e.Sys.JobFromNodes(a.Nodes())
	}
	return e.Sys.StartNoise(spec)
}

// JobCounters sums the NIC counters of all nodes of an allocation.
func JobCounters(f *network.Fabric, a *alloc.Allocation) counters.NIC {
	var total counters.NIC
	for _, n := range a.Nodes() {
		total.Add(f.NodeCounters(n))
	}
	return total
}

// MeasureSetups runs the workload under every routing setup, alternating the
// setups on successive iterations (as the paper does, so that transient noise
// does not penalize a single configuration), and returns one Measurement per
// setup keyed by name. The context is checked before the first iteration,
// between iterations, and periodically while an iteration's simulation
// advances, so a cancelled suite stops mid-measurement.
//
// This is the harness-only measurement shape; single-setup runs should go
// through the facade's Job.Run, which Measure mirrors.
func (e *Env) MeasureSetups(ctx context.Context, a *alloc.Allocation, setups []RoutingSetup,
	hostNoise func(int) int64, w workloads.Workload, iterations int) (Measurements, error) {

	comms := make([]*mpi.Comm, len(setups))
	for i, s := range setups {
		c, err := mpi.NewComm(e.Fabric, a, mpi.Config{Routing: s.Provider, HostNoise: hostNoise})
		if err != nil {
			return nil, err
		}
		comms[i] = c
	}
	out := make(Measurements, len(setups))
	for _, s := range setups {
		out[s.Name] = &Measurement{}
	}
	// One scheduler for every step, so the alternating setups share its
	// pooled rank coroutines instead of creating them per step.
	sched := mpi.NewScheduler(e.Engine)
	defer sched.Shutdown()
	// The check also interrupts a long-running iteration, not just the gaps
	// between iterations.
	check := mpi.ContextCheck(ctx)
	for iter := 0; iter < iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cancelled at iteration %d: %w", iter, err)
		}
		for i, s := range setups {
			before := JobCounters(e.Fabric, a)
			start := e.Engine.Now()
			if err := comms[i].Start(sched, w.Run); err != nil {
				return nil, fmt.Errorf("iteration %d, setup %s: %w", iter, s.Name, err)
			}
			if err := sched.Run(check); err != nil {
				return nil, fmt.Errorf("iteration %d, setup %s: %w", iter, s.Name, err)
			}
			for r := 0; r < comms[i].Size(); r++ {
				if err := comms[i].Rank(r).Err(); err != nil {
					return nil, fmt.Errorf("setup %s rank %d: %w", s.Name, r, err)
				}
			}
			elapsed := float64(e.Engine.Now() - start)
			m := out[s.Name]
			m.Times = append(m.Times, elapsed)
			m.Deltas = append(m.Deltas, JobCounters(e.Fabric, a).Sub(before))
		}
	}
	for _, s := range setups {
		if s.Stats != nil {
			out[s.Name].SelectorStats = s.Stats()
		}
	}
	return out, nil
}

// MeasureSingle is a convenience wrapper measuring a single routing setup.
func (e *Env) MeasureSingle(ctx context.Context, a *alloc.Allocation, setup RoutingSetup,
	hostNoise func(int) int64, w workloads.Workload, iterations int) (*Measurement, error) {
	res, err := e.MeasureSetups(ctx, a, []RoutingSetup{setup}, hostNoise, w, iterations)
	if err != nil {
		return nil, err
	}
	return res[setup.Name], nil
}

// runDeclarative is the default trial body: allocate the job as declared,
// start the background noise, and measure every setup on the workload.
func runDeclarative(ctx context.Context, e *Env) (any, error) {
	spec := e.Spec
	if spec.Workload == nil || spec.Setups == nil {
		return nil, fmt.Errorf("declarative spec incomplete: need Workload and Setups (or a Body)")
	}
	var job *alloc.Allocation
	var err error
	switch {
	case len(spec.FixedNodes) > 0:
		job = alloc.NewAllocation(e.Topo, spec.FixedNodes)
	case spec.PairAlloc:
		job, err = e.AllocatePair(spec.PairClass)
	default:
		job, err = e.AllocateJob(spec.Placement, spec.JobNodes)
	}
	if err != nil {
		return nil, err
	}
	if spec.Noise != nil {
		e.StartNoise(*spec.Noise, job)
	}
	var hostNoise func(int) int64
	if spec.HostNoise != nil {
		hostNoise = spec.HostNoise()
	}
	iters := spec.Iterations
	if iters < 1 {
		iters = 1
	}
	return e.MeasureSetups(ctx, job, spec.Setups(), hostNoise, spec.Workload(job.Size()), iters)
}
