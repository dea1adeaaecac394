package mpi

import "dragonfly/internal/network"

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
