// Package mpi provides a small message-passing layer on top of the simulated
// Dragonfly fabric: ranks mapped onto allocated nodes, blocking and
// non-blocking point-to-point operations, and the collective operations used
// by the paper's microbenchmarks (barrier, broadcast, allreduce, alltoall).
//
// Each rank program is written in ordinary blocking style and runs on a
// pooled runtime coroutine; a cooperative scheduler resumes the runnable
// ranks' coroutines in turn and steps the discrete event engine in between, so
// exactly one of them (a rank or the engine loop) runs at a time, keeping the
// simulation deterministic.
//
// The per-message routing decision hook sits exactly where the paper's
// LD_PRELOAD library interposes on uGNI: immediately before handing the
// message to the NIC (see RoutingProvider).
package mpi

import (
	"context"
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
	// Verb is the RDMA verb used for payload transfers.
	Verb network.Verb
	// EagerLimit is reserved for future use (all transfers currently follow
	// the same completion semantics).
	EagerLimit int64
	// HostNoise, if non-nil, returns a host-side delay in cycles sampled at
	// every point-to-point operation, modelling OS noise and node-level
	// contention (used by the Figure 4 experiment).
	HostNoise func(rank int) int64
}

// Comm is a communicator: a set of ranks mapped onto allocated nodes.
//
// A communicator no longer owns the engine-driving run loop: it is a
// co-schedulable participant on a Scheduler, so several communicators — real
// co-tenant applications — can interleave on one shared fabric. Comm.Run
// remains the single-communicator convenience built on a private scheduler.
type Comm struct {
	fabric *network.Fabric
	alloc  *alloc.Allocation
	cfg    Config
	ranks  []*Rank

	// mailbox[src][dst] is the FIFO of arrived-but-unmatched deliveries.
	mailbox map[pairKey][]*network.Delivery
	// waiting[src][dst] is the FIFO of posted-but-unmatched receive requests.
	waiting map[pairKey][]*Request

	// sched is the scheduler the communicator is currently attached to (set by
	// Start); own is the lazily built private scheduler Comm.Run attaches to.
	sched *Scheduler
	own   *Scheduler
	// remaining counts ranks that have not finished the current program.
	remaining int
	// started reports whether Start has ever been called.
	started bool
	// finishedAt is the simulated time the last rank of the most recent program
	// finished, stamped by the scheduler.
	finishedAt sim.Time
	// onFinished, if non-nil, runs (inside the scheduler's drive loop) when
	// the last rank of the current program finishes.
	onFinished func()
}

type pairKey struct{ src, dst int }

// NewComm builds a communicator with one rank per allocated node.
func NewComm(fabric *network.Fabric, a *alloc.Allocation, cfg Config) (*Comm, error) {
	if a.Size() == 0 {
		return nil, fmt.Errorf("mpi: empty allocation")
	}
	c := &Comm{
		fabric:  fabric,
		alloc:   a,
		cfg:     cfg,
		mailbox: make(map[pairKey][]*network.Delivery),
		waiting: make(map[pairKey][]*Request),
	}
	for i := 0; i < a.Size(); i++ {
		var provider RoutingProvider
		if cfg.Routing != nil {
			provider = cfg.Routing(i)
		} else {
			provider = DefaultRouting()
		}
		node := a.Node(i)
		c.ranks = append(c.ranks, &Rank{
			comm:    c,
			rank:    i,
			node:    node,
			group:   int32(fabric.Topology().GroupOfNode(node)),
			routing: provider,
		})
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

// engine returns the simulation engine.
func (c *Comm) engine() *sim.Engine { return c.fabric.Engine() }

// markRunnable re-queues a rank whose pending operation completed. It must be
// called inside the scheduler's drive loop (engine event callbacks and rank
// programs qualify).
func (c *Comm) markRunnable(r *Rank) {
	c.sched.markRunnable(r)
}

// OnFinished installs a hook the scheduler invokes (inside its drive loop)
// when the last rank of the current program finishes. The hook may call Start
// again to chain another program — the facade's concurrent runner uses this
// to string measurement iterations together — and may read the fabric, whose
// state at that moment is exactly the state at this communicator's completion
// time even while other communicators are still running.
func (c *Comm) OnFinished(fn func()) { c.onFinished = fn }

// Finished reports whether the most recent program has completed on every
// rank. It is false before the first Start.
func (c *Comm) Finished() bool { return c.started && c.remaining == 0 }

// FinishedAt returns the simulated time the last rank of the most recent
// program finished (0 before the first completion).
func (c *Comm) FinishedAt() sim.Time { return c.finishedAt }

// Start binds program to every rank, each on a coroutine from the
// scheduler's pool, and attaches the communicator to the scheduler, which
// will interleave its ranks with those of every other attached communicator.
// It returns an error if the previous program has not finished. Start does
// not advance the simulation: drive it with Scheduler.Run or Scheduler.Drain;
// a program first runs when the scheduler resumes its rank.
func (c *Comm) Start(s *Scheduler, program func(*Rank)) error {
	if c.started && c.remaining > 0 {
		return fmt.Errorf("mpi: Start called on a communicator with %d unfinished ranks", c.remaining)
	}
	c.sched = s
	c.started = true
	c.remaining = len(c.ranks)
	s.live += len(c.ranks)
	for _, r := range c.ranks {
		r.finished = false
		r.queued = false
		s.bind(r, program)
		s.markRunnable(r)
	}
	return nil
}

// Run executes program on every rank and drives the simulation until all
// ranks return. It returns an error on deadlock (no rank can make progress
// and no simulation events remain). Run must not be called concurrently with
// itself on the same engine; to co-run several communicators, Start each of
// them on one shared Scheduler instead.
func (c *Comm) Run(program func(*Rank)) error {
	return c.RunContext(nil, program)
}

// RunContext is Run with cancellation: the context (when non-nil) is checked
// periodically while the simulation advances, so a long-running program can
// be aborted mid-iteration instead of only between iterations. A cancelled
// run returns the context's error; the communicator's parked ranks are
// released (Scheduler.Shutdown), but the communicator's state is torn
// mid-operation and it must not be reused. The private scheduler is shut down
// after every call, so callers that run a communicator many times should
// Start it on a scheduler of their own instead.
func (c *Comm) RunContext(ctx context.Context, program func(*Rank)) error {
	if c.own == nil {
		c.own = NewScheduler(c.engine())
	}
	if err := c.Start(c.own, program); err != nil {
		return err
	}
	defer c.own.Shutdown()
	return c.own.Run(ContextCheck(ctx))
}

// deliver routes an arrived message to a waiting receive request or stores it
// in the mailbox. It runs inside an engine event callback.
func (c *Comm) deliver(srcRank, dstRank int, d network.Delivery) {
	key := pairKey{srcRank, dstRank}
	if reqs := c.waiting[key]; len(reqs) > 0 {
		req := reqs[0]
		c.waiting[key] = reqs[1:]
		req.complete(&d)
		return
	}
	dd := d
	c.mailbox[key] = append(c.mailbox[key], &dd)
}

// matchRecv tries to match a posted receive against an already arrived
// message; it returns true if the request completed immediately.
func (c *Comm) matchRecv(req *Request) bool {
	key := pairKey{req.peer, req.owner.rank}
	if msgs := c.mailbox[key]; len(msgs) > 0 {
		msg := msgs[0]
		c.mailbox[key] = msgs[1:]
		req.complete(msg)
		return true
	}
	c.waiting[key] = append(c.waiting[key], req)
	return false
}
