package mpi

import (
	"fmt"

	"dragonfly/internal/core"
	"dragonfly/internal/counters"
	"dragonfly/internal/network"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// Rank is one simulated process. All methods must be called from the rank's
// own program (started by Comm.Start or Comm.Run); they may block in
// simulated time.
type Rank struct {
	comm    *Comm
	rank    int
	node    topo.NodeID
	group   int32
	routing RoutingProvider

	// co is the pooled coroutine running the rank's current program; nil
	// while no program is bound (before Start, after the program finished).
	co       *coroutine
	queued   bool
	finished bool

	// computeDone flags the completion of the (single) outstanding Compute
	// event; see Compute and HandleEvent.
	computeDone bool

	sendSeq uint64
	err     error
}

// Rank returns the rank index within the communicator.
func (r *Rank) Rank() int { return r.rank }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.comm.Size() }

// Node returns the node this rank is mapped onto.
func (r *Rank) Node() topo.NodeID { return r.node }

// Comm returns the communicator.
func (r *Rank) Comm() *Comm { return r.comm }

// Now returns the current simulated time.
func (r *Rank) Now() sim.Time { return r.comm.engine().Now() }

// Err returns the first error encountered by this rank's operations (an
// invalid peer, a fabric rejection). Operations after an error are no-ops so
// that programs do not need to check every call; Err must be checked after
// Comm.Run returns.
func (r *Rank) Err() error { return r.err }

// RoutingProvider returns the routing provider attached to this rank.
func (r *Rank) RoutingProvider() RoutingProvider { return r.routing }

// fail records the first error.
func (r *Rank) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// block yields the rank's coroutine back to the scheduler until it resumes
// the rank. When Scheduler.Shutdown stops the coroutine instead, the yield
// returns false and block unwinds the rank's program: an abandoned run
// (cancellation, deadlock) would otherwise leave it parked forever.
func (r *Rank) block() {
	if !r.co.yield(struct{}{}) {
		panic(errRankAborted)
	}
}

// Request is a handle for a non-blocking operation.
type Request struct {
	owner  *Rank
	peer   int
	isSend bool

	done     bool
	delivery *network.Delivery
}

// Done reports whether the operation completed.
func (q *Request) Done() bool { return q.done }

// Delivery returns the fabric-level delivery record of a completed receive (or
// of a completed send). It returns nil for operations that are not complete or
// that carried no network transfer (same-rank copies).
func (q *Request) Delivery() *network.Delivery { return q.delivery }

// complete marks the request as done and re-queues its owner if it is waiting.
func (q *Request) complete(d *network.Delivery) {
	q.done = true
	q.delivery = d
	q.owner.comm.markRunnable(q.owner)
}

// Compute advances this rank's local time by the given number of cycles,
// modelling computation or host-side overhead.
func (r *Rank) Compute(cycles int64) {
	if cycles <= 0 || r.err != nil {
		return
	}
	doneAt := r.comm.engine().Now() + cycles
	// Compute blocks until its completion event has fired, so at most one is
	// outstanding per rank and a flag on the rank replaces a per-call closure
	// (this is the hottest non-fabric scheduling site: every host-noise sample
	// and selector overhead charge lands here).
	r.computeDone = false
	if sh := r.comm.fabric.Sharding(); sh != nil {
		if r.comm.fabric.ShardableActive() {
			// Under the shardable variant the wakeup is a conforming-parallel
			// event of the rank's group: it executes inside a horizon window
			// (no state is touched — the rank is parked until the scheduler
			// resumes it) and defers the markRunnable callback to the window
			// barrier through the canonical merge, so compute wakeups neither
			// clip windows nor ride the serial domain. The rank resumes with
			// the engine clock at the window maximum rather than exactly at
			// doneAt — the variant's relaxed, still shard-count-deterministic
			// timing model.
			sh.ScheduleLocal(r.group, doneAt, r, 0, 0)
		} else {
			// Exact variant on a sharded system: the rank is pinned to its
			// node's group and the wakeup is filed on the owning shard's heap
			// with its global sequence number intact, so the execution order
			// stays byte-identical to the serial engine.
			sh.ScheduleResident(r.group, doneAt, r, 0, 0)
		}
	} else {
		r.comm.engine().ScheduleCall(doneAt, r, 0, 0)
	}
	for !r.computeDone {
		r.block()
	}
}

// HandleEvent implements sim.Handler for Compute completion events (and for
// the barrier action a promoted wakeup defers).
func (r *Rank) HandleEvent(_ *sim.Engine, _, _ int64) {
	r.computeDone = true
	r.comm.markRunnable(r)
}

// HandleLocalEvent implements sim.LocalHandler for promoted Compute wakeups:
// the in-window half does nothing but defer the serial-domain callback
// (markRunnable needs the scheduler) to the window barrier.
func (r *Rank) HandleLocalEvent(sc *sim.ShardContext, a, b int64) {
	sc.Defer(r, a, b)
}

// hostNoise charges the configured host-side noise, if any.
func (r *Rank) hostNoise() {
	if r.comm.cfg.HostNoise == nil {
		return
	}
	if d := r.comm.cfg.HostNoise(r.rank); d > 0 {
		r.Compute(d)
	}
}

// Isend starts a non-blocking send of size bytes to the peer rank. kind
// describes the traffic for the routing provider (use core.Alltoall inside
// all-to-all exchanges).
func (r *Rank) Isend(peer int, size int64, kind core.TrafficKind) *Request {
	req := &Request{owner: r, peer: peer, isSend: true}
	if r.err != nil {
		req.done = true
		return req
	}
	if peer < 0 || peer >= r.Size() {
		r.fail(fmt.Errorf("mpi: rank %d sending to invalid peer %d", r.rank, peer))
		req.done = true
		return req
	}
	if size < 0 {
		size = 0
	}
	mode, overhead, observe := r.routing.SelectMode(size, kind)
	if overhead > 0 {
		r.Compute(overhead)
	}
	dstNode := r.comm.alloc.Node(peer)
	srcRank, dstRank := r.rank, peer
	r.sendSeq++
	err := r.comm.fabric.Send(r.node, dstNode, size, network.SendOptions{
		Mode: mode,
		Verb: r.comm.cfg.Verb,
		Tag:  uint64(srcRank)<<32 | r.sendSeq,
	}, func(d network.Delivery) {
		if observe != nil {
			observe(d)
		}
		req.complete(&d)
		r.comm.deliver(srcRank, dstRank, d)
	})
	if err != nil {
		r.fail(err)
		req.done = true
	}
	return req
}

// Irecv starts a non-blocking receive of the next message from the peer rank.
func (r *Rank) Irecv(peer int) *Request {
	req := &Request{owner: r, peer: peer}
	if r.err != nil {
		req.done = true
		return req
	}
	if peer < 0 || peer >= r.Size() {
		r.fail(fmt.Errorf("mpi: rank %d receiving from invalid peer %d", r.rank, peer))
		req.done = true
		return req
	}
	r.comm.matchRecv(req)
	return req
}

// Wait blocks until the request completes.
func (r *Rank) Wait(req *Request) {
	if req == nil {
		return
	}
	for !req.done && r.err == nil {
		r.block()
	}
}

// WaitAll blocks until all requests complete.
func (r *Rank) WaitAll(reqs ...*Request) {
	for _, q := range reqs {
		r.Wait(q)
	}
}

// Send performs a blocking send. Completion follows rendezvous semantics: the
// call returns when the payload has been delivered to the destination NIC.
func (r *Rank) Send(peer int, size int64, kind core.TrafficKind) {
	r.hostNoise()
	r.Wait(r.Isend(peer, size, kind))
}

// Recv performs a blocking receive of the next message from peer and returns
// its delivery record (nil for same-rank transfers that used no network).
func (r *Rank) Recv(peer int) *network.Delivery {
	r.hostNoise()
	req := r.Irecv(peer)
	r.Wait(req)
	return req.delivery
}

// SendRecv exchanges messages with two peers concurrently (sends size bytes to
// sendPeer while receiving from recvPeer) and returns the received delivery.
func (r *Rank) SendRecv(sendPeer int, size int64, recvPeer int, kind core.TrafficKind) *network.Delivery {
	r.hostNoise()
	recvReq := r.Irecv(recvPeer)
	sendReq := r.Isend(sendPeer, size, kind)
	r.Wait(sendReq)
	r.Wait(recvReq)
	return recvReq.delivery
}

// NICCounters returns the cumulative NIC counters of the node this rank runs
// on, as the application would read them through PAPI.
func (r *Rank) NICCounters() counters.NIC {
	return r.comm.fabric.NodeCounters(r.node)
}
