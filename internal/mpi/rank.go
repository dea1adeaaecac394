package mpi

import (
	"fmt"

	"dragonfly/internal/core"
	"dragonfly/internal/counters"
	"dragonfly/internal/network"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// Rank is one simulated process. All methods must be called from the rank's
// own program (started by Comm.Start); they may block in simulated time.
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

	// waits counts what the blocked rank waits for: its pending requests,
	// each once, or the one Compute, host-noise or overhead event. The rank
	// is re-queued when it drops to zero (see wake).
	waits int
	// plan is the blocking call the rank is running (see plan.go).
	plan plan

	// posted and unexpected are the rank's matching queues (see match.go).
	posted     fifo[*Request]
	unexpected fifo[unexpectedMsg]
	// sendReq and recvReq are the requests every plan round runs on.
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
// that programs do not need to check every call; Err must be checked once the
// program has finished.
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
// the rank, which it does once what the rank waits for is done. When
// Scheduler.Shutdown stops the coroutine instead, the yield returns false and
// block unwinds the rank's program: an abandoned run (cancellation,
// deadlock) would otherwise leave it parked forever.
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
	// waited reports whether the owner is blocked on the request and counts
	// it in its waits.
	waited bool
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

// complete records the delivery and marks the request as done. If the owner
// waits on it, it is one fewer thing the owner waits for.
func (q *Request) complete(d *network.Delivery) {
	q.done = true
	q.delivery, q.delivered = *d, true
	if q.waited {
		q.waited = false
		q.owner.wake()
	}
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
	r.delay(cycles)
	r.block()
}

// delay schedules the completion event of cycles of host time, the one thing
// the rank then waits for. At most one is outstanding per rank, so the event
// is the rank itself and needs no closure: every Compute, host-noise sample
// and selector overhead charge lands here.
func (r *Rank) delay(cycles int64) {
	r.waits++
	r.comm.engine().AfterCall(cycles, r, 0, 0)
}

// HandleEvent implements sim.Handler for the events delay schedules.
func (r *Rank) HandleEvent(_ *sim.Engine, _, _ int64) {
	r.wake()
}

// wake counts down one thing the rank waits for and re-queues the rank when
// none is left, so the scheduler resumes a rank only when its wait is done.
func (r *Rank) wake() {
	if r.waits--; r.waits == 0 {
		r.comm.markRunnable(r)
	}
}

// sampleNoise samples the configured host noise, if any, and returns the
// delay to charge: none once r.err is set, as Compute charges none.
func (r *Rank) sampleNoise() int64 {
	if r.comm.cfg.HostNoise == nil {
		return 0
	}
	d := r.comm.cfg.HostNoise(r.rank)
	if r.err != nil {
		return 0
	}
	return d
}

// hostNoise charges the configured host-side noise, if any.
func (r *Rank) hostNoise() {
	r.Compute(r.sampleNoise())
}

// Isend starts a non-blocking send of size bytes to the peer rank. kind
// describes the traffic for the routing provider (use core.Alltoall inside
// all-to-all exchanges).
func (r *Rank) Isend(peer int, size int64, kind core.TrafficKind) *Request {
	q := &Request{owner: r}
	r.isend(q, peer, size, kind)
	return q
}

// isend starts the send of size bytes to peer on q, charging the selector's
// overhead in between as a Compute.
func (r *Rank) isend(q *Request, peer int, size int64, kind core.TrafficKind) {
	size = max(size, 0)
	mode, overhead := r.selectSend(q, peer, size, kind)
	r.Compute(overhead)
	r.inject(q, size, mode)
}

// selectSend readies q for a send of size >= 0 bytes to peer and asks the
// routing provider for its mode. It returns the mode and the overhead to
// charge before inject. A send that cannot start (an earlier error, an
// invalid peer, which sets r.err) completes q at once with no overhead.
func (r *Rank) selectSend(q *Request, peer int, size int64, kind core.TrafficKind) (routing.Mode, int64) {
	q.start(peer)
	if r.err != nil {
		q.done = true
		return 0, 0
	}
	if peer < 0 || peer >= r.Size() {
		r.fail(fmt.Errorf("mpi: rank %d sending to invalid peer %d", r.rank, peer))
		q.done = true
		return 0, 0
	}
	mode, overhead, observe := r.routing.SelectMode(size, kind)
	q.observe = observe
	return mode, overhead
}

// inject hands the send selectSend readied on q to the fabric, unless it
// could not start.
func (r *Rank) inject(q *Request, size int64, mode routing.Mode) {
	if q.done {
		return
	}
	if q.sent == nil {
		q.sent = q.sendDone
	}
	r.sendSeq++
	err := r.comm.fabric.Send(r.node, r.comm.alloc.Node(q.peer), size, network.SendOptions{
		Mode: mode,
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

// Wait blocks until the request completes (see WaitAll).
func (r *Rank) Wait(req *Request) {
	r.WaitAll(req)
}

// WaitAll blocks until all requests complete; nil requests and repeats are
// allowed. The rank is resumed once, when the last one completes. Waiting on
// a request this rank did not start fails the call (see Err), and after an
// error WaitAll returns at once.
func (r *Rank) WaitAll(reqs ...*Request) {
	for _, q := range reqs {
		if q != nil && q.owner != r {
			r.fail(fmt.Errorf("mpi: rank %d waiting on a request it did not start", r.rank))
		}
	}
	if r.err != nil {
		return
	}
	for _, q := range reqs {
		if q != nil {
			r.count(q)
		}
	}
	if r.waits > 0 {
		r.block()
	}
}

// count adds q to what the rank waits for, once, unless it completed.
func (r *Rank) count(q *Request) {
	if !q.done && !q.waited {
		q.waited = true
		r.waits++
	}
}

// Send performs a blocking send. Completion follows rendezvous semantics: the
// call returns when the payload has been delivered to the destination NIC.
func (r *Rank) Send(peer int, size int64, kind core.TrafficKind) {
	r.plan = plan{op: opSend, to: peer, size: size, kind: kind}
	r.run()
}

// Recv performs a blocking receive of the next message from peer and returns
// its delivery record (a same-node transfer has one too), or nil when the
// receive failed (see Err). The record belongs to the rank and is valid until
// its next blocking call: Send, Recv, SendRecv or a collective.
func (r *Rank) Recv(peer int) *network.Delivery {
	failed := r.err != nil
	r.plan = plan{op: opRecv, from: peer}
	r.run()
	return r.received(failed)
}

// SendRecv exchanges messages with two peers concurrently (sends size bytes to
// sendPeer while receiving from recvPeer) and returns the received delivery,
// valid as long as the one Recv returns.
func (r *Rank) SendRecv(sendPeer int, size int64, recvPeer int, kind core.TrafficKind) *network.Delivery {
	failed := r.err != nil
	r.plan = plan{op: opSendRecv, to: sendPeer, size: size, from: recvPeer, kind: kind}
	r.run()
	return r.received(failed)
}

// received returns the delivery of the receive the call just made, or nil
// when the call failed before posting it or the receive is not done.
func (r *Rank) received(failed bool) *network.Delivery {
	if failed {
		return nil
	}
	return r.recvReq.Delivery()
}

// NICCounters returns the cumulative NIC counters of the node this rank runs
// on, as the application would read them through PAPI.
func (r *Rank) NICCounters() counters.NIC {
	return r.comm.fabric.NodeCounters(r.node)
}
