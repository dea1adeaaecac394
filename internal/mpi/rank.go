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
	routing RoutingProvider

	// co is the pooled coroutine running the rank's current program; nil
	// while no program is bound (before Start, after the program finished).
	co       *coroutine
	queued   bool
	finished bool

	// computeDone flags the completion of the (single) outstanding Compute
	// event; see Compute and HandleEvent.
	computeDone bool

	// posted and unexpected are the rank's matching queues (see match.go).
	posted     fifo[*Request]
	unexpected fifo[unexpectedMsg]
	// sendReq and recvReq are the requests every blocking call runs on (see
	// exchange).
	sendReq, recvReq Request

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
	owner *Rank
	peer  int
	done  bool
	// delivered reports whether delivery holds the operation's record; it
	// stays false while the operation is pending and when it failed.
	delivered bool
	delivery  network.Delivery
	// observe is the routing provider's counter hook for the message a send
	// request carries; sent is the request's sendDone, bound on its first
	// send, so a send allocates no completion closure.
	observe func(DeliveryCounters)
	sent    func(network.Delivery)
}

// Done reports whether the operation completed.
func (q *Request) Done() bool { return q.done }

// Delivery returns the fabric-level delivery record of a completed receive or
// send. Every completed transfer has one, a same-node copy included; it is
// nil while the operation is pending and when it failed. The record is part
// of the request: it stays valid as long as the request is not reused, and
// the request behind the delivery Rank.Recv and Rank.SendRecv return is
// reused by the rank's next blocking call.
func (q *Request) Delivery() *network.Delivery {
	if !q.delivered {
		return nil
	}
	return &q.delivery
}

// start readies q for an operation with peer.
func (q *Request) start(peer int) {
	q.peer, q.done, q.delivered, q.observe = peer, false, false, nil
}

// complete records the delivery, marks the request as done and re-queues its
// owner if it is waiting.
func (q *Request) complete(d *network.Delivery) {
	q.done = true
	q.delivery, q.delivered = *d, true
	q.owner.comm.markRunnable(q.owner)
}

// sendDone is the fabric's completion callback for the send q carries: it
// feeds the routing provider's observer, completes the send and hands the
// delivery to the destination rank's matching queues, in that order, so the
// sender becomes runnable before the receiver it may wake.
func (q *Request) sendDone(d network.Delivery) {
	if q.observe != nil {
		q.observe(d)
	}
	q.complete(&d)
	q.owner.comm.ranks[q.peer].arrive(q.owner.rank, &d)
}

// Compute advances this rank's local time by the given number of cycles,
// modelling computation or host-side overhead.
func (r *Rank) Compute(cycles int64) {
	if cycles <= 0 || r.err != nil {
		return
	}
	// Compute blocks until its completion event has fired, so at most one is
	// outstanding per rank and a flag on the rank replaces a per-call closure
	// (this is the hottest non-fabric scheduling site: every host-noise sample
	// and selector overhead charge lands here).
	r.computeDone = false
	r.comm.engine().AfterCall(cycles, r, 0, 0)
	for !r.computeDone {
		r.block()
	}
}

// HandleEvent implements sim.Handler for Compute completion events.
func (r *Rank) HandleEvent(_ *sim.Engine, _, _ int64) {
	r.computeDone = true
	r.comm.markRunnable(r)
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
	q := &Request{owner: r}
	r.isend(q, peer, size, kind)
	return q
}

// isend starts the send of size bytes to peer on q.
func (r *Rank) isend(q *Request, peer int, size int64, kind core.TrafficKind) {
	q.start(peer)
	if r.err != nil {
		q.done = true
		return
	}
	if peer < 0 || peer >= r.Size() {
		r.fail(fmt.Errorf("mpi: rank %d sending to invalid peer %d", r.rank, peer))
		q.done = true
		return
	}
	if size < 0 {
		size = 0
	}
	mode, overhead, observe := r.routing.SelectMode(size, kind)
	if overhead > 0 {
		r.Compute(overhead)
	}
	q.observe = observe
	if q.sent == nil {
		q.sent = q.sendDone
	}
	r.sendSeq++
	err := r.comm.fabric.Send(r.node, r.comm.alloc.Node(peer), size, network.SendOptions{
		Mode: mode,
		Verb: r.comm.cfg.Verb,
		Tag:  uint64(r.rank)<<32 | r.sendSeq,
	}, q.sent)
	if err != nil {
		r.fail(err)
		q.done = true
	}
}

// Irecv starts a non-blocking receive of the next message from the peer rank.
func (r *Rank) Irecv(peer int) *Request {
	q := &Request{owner: r}
	r.irecv(q, peer)
	return q
}

// irecv posts the receive of the next message from peer on q.
func (r *Rank) irecv(q *Request, peer int) {
	q.start(peer)
	if r.err != nil {
		q.done = true
		return
	}
	if peer < 0 || peer >= r.Size() {
		r.fail(fmt.Errorf("mpi: rank %d receiving from invalid peer %d", r.rank, peer))
		q.done = true
		return
	}
	r.match(q)
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

// exchange is the body of every blocking call: it posts the receive from
// recvPeer on recv, starts the send of size bytes to sendPeer on send, and
// waits for both; a nil request leaves its half out. It returns the received
// delivery, or nil. The callers pass the rank's own sendReq and recvReq. Both
// complete before exchange returns unless an operation fails and sets r.err,
// and from then on exchange returns at once, so a receive a failed call left
// posted is never rewritten.
func (r *Rank) exchange(send *Request, sendPeer int, size int64, kind core.TrafficKind, recv *Request, recvPeer int) *network.Delivery {
	if r.err != nil {
		return nil
	}
	if recv != nil {
		r.irecv(recv, recvPeer)
	}
	if send != nil {
		r.isend(send, sendPeer, size, kind)
		r.Wait(send)
	}
	if recv == nil {
		return nil
	}
	r.Wait(recv)
	return recv.Delivery()
}

// Send performs a blocking send. Completion follows rendezvous semantics: the
// call returns when the payload has been delivered to the destination NIC.
func (r *Rank) Send(peer int, size int64, kind core.TrafficKind) {
	r.hostNoise()
	r.exchange(&r.sendReq, peer, size, kind, nil, 0)
}

// Recv performs a blocking receive of the next message from peer and returns
// its delivery record (a same-node transfer has one too), or nil when the
// receive failed (see Err). The record belongs to the rank and is valid until
// its next blocking call: Send, Recv, SendRecv or a collective.
func (r *Rank) Recv(peer int) *network.Delivery {
	r.hostNoise()
	return r.exchange(nil, 0, 0, 0, &r.recvReq, peer)
}

// SendRecv exchanges messages with two peers concurrently (sends size bytes to
// sendPeer while receiving from recvPeer) and returns the received delivery,
// valid as long as the one Recv returns.
func (r *Rank) SendRecv(sendPeer int, size int64, recvPeer int, kind core.TrafficKind) *network.Delivery {
	r.hostNoise()
	return r.exchange(&r.sendReq, sendPeer, size, kind, &r.recvReq, recvPeer)
}

// NICCounters returns the cumulative NIC counters of the node this rank runs
// on, as the application would read them through PAPI.
func (r *Rank) NICCounters() counters.NIC {
	return r.comm.fabric.NodeCounters(r.node)
}
