// Package mpi provides a small message-passing layer on top of the simulated
// Dragonfly fabric: ranks mapped onto allocated nodes, blocking and
// non-blocking point-to-point operations, and the collective operations used
// by the paper's microbenchmarks (barrier, broadcast, allreduce, alltoall).
//
// Each rank program is written in ordinary blocking style and runs on a
// pooled runtime coroutine; a cooperative scheduler resumes the runnable
// ranks' coroutines in turn and steps the discrete event engine in between, so
// exactly one of them (a rank or the engine loop) runs at a time, keeping the
// simulation deterministic. A rank is resumed only when what it waits for is
// done. Send, Recv, SendRecv and the collectives are plans of rounds (see
// plan.go) that the scheduler advances from its run queue without resuming
// the rank, so each blocking call costs the rank at most one resume, however
// many messages it holds.
//
// The per-message routing decision hook sits exactly where the paper's
// LD_PRELOAD library interposes on uGNI: immediately before handing the
// message to the NIC (see RoutingProvider).
package mpi

import (
	"fmt"

	"dragonfly/internal/alloc"
	"dragonfly/internal/core"
	"dragonfly/internal/network"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
)

// RoutingProvider decides the routing mode for each message a rank sends. It
// is the interposition point of the paper's application-aware library.
type RoutingProvider interface {
	// SelectMode is called before a message of msgSize bytes of the given
	// traffic kind is sent. The returned overhead (cycles) is charged to the
	// sending rank as host-side time, and observe, if non-nil, is invoked with
	// the per-message NIC counter delta once the transfer completes.
	SelectMode(msgSize int64, kind core.TrafficKind) (mode routing.Mode, overhead int64, observe func(delta DeliveryCounters))
}

// DeliveryCounters is re-exported so RoutingProvider implementations do not
// need to import the network package.
type DeliveryCounters = network.Delivery

// StaticRouting always returns the same routing mode (used for the paper's
// per-mode baselines).
type StaticRouting struct {
	// Mode is the routing mode applied to every message.
	Mode routing.Mode
	// AlltoallMode, if non-nil, overrides Mode for alltoall traffic, mirroring
	// MPICH_GNI_A2A_ROUTING_MODE (the "Default" configuration of the paper
	// routes alltoall with Increasingly Minimal Bias).
	AlltoallMode *routing.Mode
}

// SelectMode implements RoutingProvider.
func (s StaticRouting) SelectMode(_ int64, kind core.TrafficKind) (routing.Mode, int64, func(DeliveryCounters)) {
	if kind == core.Alltoall && s.AlltoallMode != nil {
		return *s.AlltoallMode, 0, nil
	}
	return s.Mode, 0, nil
}

// DefaultRouting returns the system default configuration used as the paper's
// "Default" baseline: ADAPTIVE_0 for everything except alltoall, which uses
// ADAPTIVE_1 (Increasingly Minimal Bias).
func DefaultRouting() RoutingProvider {
	imb := routing.IncreasinglyMinimalBias
	return StaticRouting{Mode: routing.Adaptive, AlltoallMode: &imb}
}

// AppAwareRouting adapts a core.Selector to the RoutingProvider interface.
type AppAwareRouting struct {
	// Selector is the per-rank application-aware selector.
	Selector *core.Selector
}

// SelectMode implements RoutingProvider by running Algorithm 1 and feeding the
// per-message counter delta back into the selector.
func (a AppAwareRouting) SelectMode(msgSize int64, kind core.TrafficKind) (routing.Mode, int64, func(DeliveryCounters)) {
	d := a.Selector.Select(msgSize, kind)
	var observe func(DeliveryCounters)
	if d.Evaluated {
		mode := d.Mode
		observe = func(del DeliveryCounters) { a.Selector.Observe(mode, del.Counters) }
	}
	return d.Mode, d.OverheadCycles, observe
}

// Config configures a communicator.
type Config struct {
	// Routing builds the routing provider for one rank. It is called once per
	// rank so that stateful providers (application-aware selectors) are not
	// shared between ranks. If nil, DefaultRouting is used for every rank.
	Routing func(rank int) RoutingProvider
	// HostNoise, if non-nil, returns a host-side delay in cycles sampled at
	// every point-to-point operation, modelling OS noise and node-level
	// contention (used by the Figure 4 experiment).
	HostNoise func(rank int) int64
}

// Comm is a communicator: a set of ranks mapped onto allocated nodes.
//
// A communicator does not drive the engine: it is a co-schedulable
// participant on a Scheduler its owner drives, so several communicators —
// real co-tenant applications — can interleave on one shared fabric.
type Comm struct {
	fabric *network.Fabric
	alloc  *alloc.Allocation
	cfg    Config
	ranks  []*Rank

	// sched is the scheduler the communicator is currently attached to (set by
	// Start).
	sched *Scheduler
	// remaining counts ranks that have not finished the current program.
	remaining int
	// onFinished, if non-nil, runs (inside the scheduler's drive loop) when
	// the last rank of the current program finishes.
	onFinished func()
}

// NewComm builds a communicator with one rank per allocated node.
func NewComm(fabric *network.Fabric, a *alloc.Allocation, cfg Config) (*Comm, error) {
	if a.Size() == 0 {
		return nil, fmt.Errorf("mpi: empty allocation")
	}
	c := &Comm{fabric: fabric, alloc: a, cfg: cfg}
	for i := 0; i < a.Size(); i++ {
		var provider RoutingProvider
		if cfg.Routing != nil {
			provider = cfg.Routing(i)
		} else {
			provider = DefaultRouting()
		}
		r := &Rank{comm: c, rank: i, node: a.Node(i), routing: provider}
		r.sendReq.owner, r.recvReq.owner = r, r
		c.ranks = append(c.ranks, r)
	}
	return c, nil
}

// MustNewComm is like NewComm but panics on error.
func MustNewComm(fabric *network.Fabric, a *alloc.Allocation, cfg Config) *Comm {
	c, err := NewComm(fabric, a, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.ranks) }

// Fabric returns the underlying fabric.
func (c *Comm) Fabric() *network.Fabric { return c.fabric }

// Allocation returns the node allocation backing the communicator.
func (c *Comm) Allocation() *alloc.Allocation { return c.alloc }

// Rank returns the rank object with the given index (useful to inspect
// per-rank state such as selector statistics after a run).
func (c *Comm) Rank(i int) *Rank { return c.ranks[i] }

// Err returns the error of the lowest-numbered rank that failed its program,
// as "rank N: <error>", or nil when every rank succeeded. Check it once the
// program has finished.
func (c *Comm) Err() error {
	for _, r := range c.ranks {
		if r.err != nil {
			return fmt.Errorf("rank %d: %w", r.rank, r.err)
		}
	}
	return nil
}

// engine returns the simulation engine.
func (c *Comm) engine() *sim.Engine { return c.fabric.Engine() }

// markRunnable re-queues a rank whose pending operation completed. It must be
// called inside the scheduler's drive loop (engine event callbacks and rank
// programs qualify).
func (c *Comm) markRunnable(r *Rank) {
	c.sched.markRunnable(r)
}

// OnFinished installs a hook the scheduler invokes (inside its drive loop)
// when the last rank of the current program finishes; the engine's Now is
// then the communicator's completion time. The hook may call Start again to
// chain another program — the facade's concurrent runner uses this to string
// measurement iterations together — and may read the fabric, whose state at
// that moment is exactly the state at this communicator's completion time
// even while other communicators are still running.
func (c *Comm) OnFinished(fn func()) { c.onFinished = fn }

// Start binds program to every rank, each on a coroutine from the
// scheduler's pool, and attaches the communicator to the scheduler, which
// will interleave its ranks with those of every other attached communicator.
// It returns an error if the previous program has not finished. Start does
// not advance the simulation: drive it with Scheduler.Run; a program first
// runs when the scheduler resumes its rank.
func (c *Comm) Start(s *Scheduler, program func(*Rank)) error {
	if c.remaining > 0 {
		return fmt.Errorf("mpi: Start called on a communicator with %d unfinished ranks", c.remaining)
	}
	c.sched = s
	c.remaining = len(c.ranks)
	s.live += len(c.ranks)
	for _, r := range c.ranks {
		r.finished = false
		r.queued = false
		r.waits = 0
		r.plan = plan{}
		s.bind(r, program)
		s.markRunnable(r)
	}
	return nil
}
