package mpi

import (
	"dragonfly/internal/core"
	"dragonfly/internal/network"
)

// refMatcher is the matcher the per-rank queues replaced, kept as the oracle
// for FuzzMatch: one FIFO of posted receives and one of arrived messages per
// (source, destination) pair, in two maps, with one heap Delivery per
// unexpected message.
type refMatcher struct {
	// mailbox[src][dst] is the FIFO of arrived-but-unmatched deliveries.
	mailbox map[pairKey][]*network.Delivery
	// waiting[src][dst] is the FIFO of posted-but-unmatched receive requests.
	waiting map[pairKey][]*refRequest
}

type pairKey struct{ src, dst int }

// refRequest is a receive posted to the reference matcher.
type refRequest struct {
	peer, owner int
	done        bool
	delivery    *network.Delivery
}

func newRefMatcher() *refMatcher {
	return &refMatcher{
		mailbox: make(map[pairKey][]*network.Delivery),
		waiting: make(map[pairKey][]*refRequest),
	}
}

func (q *refRequest) complete(d *network.Delivery) {
	q.done = true
	q.delivery = d
}

// deliver routes an arrived message to a waiting receive request or stores it
// in the mailbox.
func (c *refMatcher) deliver(srcRank, dstRank int, d network.Delivery) {
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

// matchRecv matches a posted receive against an already arrived message, or
// queues it.
func (c *refMatcher) matchRecv(req *refRequest) {
	key := pairKey{req.peer, req.owner}
	if msgs := c.mailbox[key]; len(msgs) > 0 {
		msg := msgs[0]
		c.mailbox[key] = msgs[1:]
		req.complete(msg)
		return
	}
	c.waiting[key] = append(c.waiting[key], req)
}

// The blocking calls as they were before plans, kept as the oracle for
// FuzzCollectives: each round is a blocking Send, Recv or SendRecv, or a
// refExchange on the rank's own requests, and the rank's coroutine waits out
// each host-noise sample, overhead charge and transfer in turn.

// refExchange posts the receive from recvPeer on recv, starts the send of
// size bytes to sendPeer on send, and waits for both; a nil request leaves
// its half out. It returns the received delivery, or nil, and returns at once
// once r.err is set.
func (r *Rank) refExchange(send *Request, sendPeer int, size int64, kind core.TrafficKind, recv *Request, recvPeer int) *network.Delivery {
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

// refSend is Send as host noise and a blocking exchange.
func (r *Rank) refSend(peer int, size int64, kind core.TrafficKind) {
	r.hostNoise()
	r.refExchange(&r.sendReq, peer, size, kind, nil, 0)
}

// refRecv is Recv as host noise and a blocking exchange.
func (r *Rank) refRecv(peer int) *network.Delivery {
	r.hostNoise()
	return r.refExchange(nil, 0, 0, 0, &r.recvReq, peer)
}

// refSendRecv is SendRecv as host noise and a blocking exchange.
func (r *Rank) refSendRecv(sendPeer int, size int64, recvPeer int, kind core.TrafficKind) *network.Delivery {
	r.hostNoise()
	return r.refExchange(&r.sendReq, sendPeer, size, kind, &r.recvReq, recvPeer)
}

// refBarrier is Barrier as a loop of blocking calls.
func (r *Rank) refBarrier() {
	n := r.Size()
	if n == 1 {
		return
	}
	r.hostNoise()
	for dist := 1; dist < n; dist *= 2 {
		to := (r.rank + dist) % n
		from := (r.rank - dist + n) % n
		r.refExchange(&r.sendReq, to, controlMessageBytes, core.PointToPoint, &r.recvReq, from)
	}
}

// refBroadcast is Broadcast as a loop of blocking calls.
func (r *Rank) refBroadcast(root int, size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	r.hostNoise()
	// Re-number ranks so the root is virtual rank 0.
	vrank := (r.rank - root + n) % n
	// Receive from the parent (unless root).
	if vrank != 0 {
		mask := 1
		for mask < n {
			if vrank&mask != 0 {
				parent := ((vrank - mask) + root) % n
				r.refRecv(parent)
				break
			}
			mask <<= 1
		}
	}
	// Forward to children.
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			break
		}
		mask <<= 1
	}
	for child := mask >> 1; child >= 1; child >>= 1 {
		if vrank&child == 0 && vrank+child < n {
			dest := ((vrank + child) + root) % n
			r.refSend(dest, size, core.PointToPoint)
		}
	}
}

// refReduce is the binomial-tree reduce of Allreduce on other than a power of
// two as a loop of blocking calls.
func (r *Rank) refReduce(root int, size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	r.hostNoise()
	vrank := (r.rank - root + n) % n
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % n
			r.refSend(parent, size, core.PointToPoint)
			return
		}
		partner := vrank | mask
		if partner < n {
			r.refRecv((partner + root) % n)
		}
		mask <<= 1
	}
}

// refAllreduce is Allreduce as a loop of blocking calls.
func (r *Rank) refAllreduce(size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	if n&(n-1) != 0 {
		r.refReduce(0, size)
		r.refBroadcast(0, size)
		return
	}
	r.hostNoise()
	for mask := 1; mask < n; mask <<= 1 {
		partner := r.rank ^ mask
		r.refSendRecv(partner, size, partner, core.PointToPoint)
	}
}

// refAlltoall is Alltoall as a loop of blocking calls.
func (r *Rank) refAlltoall(size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	r.hostNoise()
	for step := 1; step < n; step++ {
		var partner int
		if n&(n-1) == 0 {
			partner = r.rank ^ step
		} else {
			partner = (r.rank + step) % n
		}
		sendTo := partner
		recvFrom := partner
		if n&(n-1) != 0 {
			sendTo = (r.rank + step) % n
			recvFrom = (r.rank - step + n) % n
		}
		r.refExchange(&r.sendReq, sendTo, size, core.Alltoall, &r.recvReq, recvFrom)
	}
}

// refAllgather is the ring allgather of BroadcastScatterAllgather as a loop of
// blocking calls.
func (r *Rank) refAllgather(size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	r.hostNoise()
	next := (r.rank + 1) % n
	prev := (r.rank - 1 + n) % n
	for step := 0; step < n-1; step++ {
		r.refExchange(&r.sendReq, next, size, core.PointToPoint, &r.recvReq, prev)
	}
}

// refBroadcastScatterAllgather is BroadcastScatterAllgather as a loop of blocking calls.
func (r *Rank) refBroadcastScatterAllgather(root int, size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	block := size / int64(n)
	if block < 1 {
		block = 1
	}
	r.refScatterBinomial(root, block)
	r.refAllgather(block)
}

// refAllreduceRing is AllreduceRing as a loop of blocking calls.
func (r *Rank) refAllreduceRing(size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	r.hostNoise()
	block := size / int64(n)
	if block < 1 {
		block = 1
	}
	next := (r.rank + 1) % n
	prev := (r.rank - 1 + n) % n
	// Reduce-scatter phase.
	for step := 0; step < n-1; step++ {
		r.refExchange(&r.sendReq, next, block, core.PointToPoint, &r.recvReq, prev)
	}
	// Allgather phase.
	for step := 0; step < n-1; step++ {
		r.refExchange(&r.sendReq, next, block, core.PointToPoint, &r.recvReq, prev)
	}
}

// refAllreduceRabenseifner is AllreduceRabenseifner as a loop of blocking calls.
func (r *Rank) refAllreduceRabenseifner(size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	if n&(n-1) != 0 {
		r.refAllreduceRing(size)
		return
	}
	r.hostNoise()
	// Recursive-halving reduce-scatter: the exchanged block halves each round.
	chunk := size / 2
	if chunk < 1 {
		chunk = 1
	}
	for mask := 1; mask < n; mask <<= 1 {
		partner := r.rank ^ mask
		r.refSendRecv(partner, chunk, partner, core.PointToPoint)
		chunk /= 2
		if chunk < 1 {
			chunk = 1
		}
	}
	// Recursive-doubling allgather: the exchanged block doubles each round.
	chunk = size / int64(n)
	if chunk < 1 {
		chunk = 1
	}
	for mask := n >> 1; mask >= 1; mask >>= 1 {
		partner := r.rank ^ mask
		r.refSendRecv(partner, chunk, partner, core.PointToPoint)
		chunk *= 2
		if chunk > size {
			chunk = size
		}
	}
}

// refAlltoallBruck is AlltoallBruck as a loop of blocking calls.
func (r *Rank) refAlltoallBruck(size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	r.hostNoise()
	for dist := 1; dist < n; dist <<= 1 {
		// Count the blocks whose destination-index has bit `dist` set; those are
		// the blocks forwarded this round.
		blocks := 0
		for b := 1; b < n; b++ {
			if b&dist != 0 {
				blocks++
			}
		}
		bytes := int64(blocks) * size
		if bytes < 1 {
			bytes = 1
		}
		sendTo := (r.rank + dist) % n
		recvFrom := (r.rank - dist + n) % n
		r.refExchange(&r.sendReq, sendTo, bytes, core.Alltoall, &r.recvReq, recvFrom)
	}
}

// refScatterBinomial is the binomial scatter of BroadcastScatterAllgather as a
// loop of blocking calls.
func (r *Rank) refScatterBinomial(root int, size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	r.hostNoise()
	vrank := (r.rank - root + n) % n
	// Receive the subtree payload from the parent (unless root).
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			parentV := vrank &^ mask
			r.refRecv((parentV + root) % n)
			break
		}
		mask <<= 1
	}
	if vrank == 0 {
		mask = 1
		for mask < n {
			mask <<= 1
		}
	}
	// Forward subtree halves to children, largest subtree first.
	for child := mask >> 1; child >= 1; child >>= 1 {
		if vrank&child != 0 {
			continue
		}
		childV := vrank | child
		if childV >= n {
			continue
		}
		sub := int64(child)
		if int64(n)-int64(childV) < sub {
			sub = int64(n) - int64(childV)
		}
		r.refSend((childV+root)%n, sub*size, core.PointToPoint)
	}
}
