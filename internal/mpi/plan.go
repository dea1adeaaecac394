package mpi

import (
	"dragonfly/internal/core"
	"dragonfly/internal/routing"
)

// Round plans. Every blocking call that talks to one peer at a time — Send,
// Recv, SendRecv and the collectives — is a plan: a schedule of rounds, each
// with an optional host-noise point, an optional send and an optional
// receive, as in libNBC's nonblocking collectives (Hoefler, Lumsdaine and
// Rehm, SC07). The rank runs rounds inline until one must wait, then parks
// its coroutine once. Each time that wait is satisfied, the scheduler runs
// the next rounds at the rank's run-queue slot, where it would have resumed
// the coroutine, and it resumes the coroutine only after the last round. A
// round, in this order, samples host noise, posts the receive, selects the
// send's routing mode, charges the selector's overhead, hands the send to the
// fabric, and waits for both transfers. A host-noise delay or an overhead is
// an engine event the plan waits on. Running the rounds at the slot where the
// coroutine would have run them keeps every event, and so the simulation,
// exactly as a loop of blocking calls in the coroutine makes it
// (FuzzCollectives checks this against such loops).
//
// A plan holds no list of rounds: next derives each round from the call's
// parameters and a few loop variables, so a plan is a fixed-size value inside
// its Rank and allocates nothing.

// planOp names the call a plan runs.
type planOp uint8

const (
	opNone planOp = iota
	opSend
	opRecv
	opSendRecv
	opBarrier
	opBroadcast
	opReduce
	opAllreduce
	opAlltoall
	opAllgather
	opAllreduceRing
	opAllreduceRabenseifner
	opAlltoallBruck
	opScatterBinomial
)

// stage is a plan's position inside its current round.
type stage uint8

const (
	// stageNext begins the next round and samples its host noise.
	stageNext stage = iota
	// stagePost posts the receive and selects the send's mode.
	stagePost
	// stageInject hands the send to the fabric and waits for the transfers.
	stageInject
)

// round is one step of a plan.
type round struct {
	noise, send, recv bool
	to, from          int
	size              int64
}

// plan is the blocking call a rank is running; op is opNone between calls.
type plan struct {
	op planOp
	// then is the call that follows op with the same root and size, for the
	// calls made of two (Allreduce on other than a power of two, and
	// BroadcastScatterAllgather).
	then  planOp
	kind  core.TrafficKind
	stage stage
	root  int
	size  int64
	// to and from are the peers of Send, Recv and SendRecv, and the parent
	// of a tree rank.
	to, from int
	// begun reports whether op's first round was set. i, v, acc and flag are
	// the loop state: the mask, distance, step or child of the round; the
	// rank's virtual rank in a tree rooted at root; the running message
	// size; and whether a tree rank's receive from its parent was taken, or
	// Rabenseifner's doubling phase begun.
	begun bool
	i, v  int
	acc   int64
	flag  bool
	// mode is the routing mode selected for the current round's send.
	mode routing.Mode
	cur  round
}

// exchange sets the current round to a send of size bytes to to and a
// receive from from.
func (p *plan) exchange(to int, size int64, from int, noise bool) {
	p.cur = round{noise: noise, send: true, recv: true, to: to, from: from, size: size}
}

// sendTo sets the current round to a blocking send, host noise first.
func (p *plan) sendTo(to int, size int64) {
	p.cur = round{noise: true, send: true, to: to, size: size}
}

// recvFrom sets the current round to a blocking receive, host noise first.
func (p *plan) recvFrom(from int) {
	p.cur = round{noise: true, recv: true, from: from}
}

// next sets the current round to the plan's next one for rank me of n and
// reports whether there is one. The first round of a collective is its entry
// host-noise point, where next also sets up the loop state.
func (p *plan) next(me, n int) bool {
	if !p.begun {
		p.begun = true
		p.begin(me, n)
		return true
	}
	if p.more(me, n) {
		return true
	}
	if p.then == opNone {
		return false
	}
	p.op, p.then, p.begun = p.then, opNone, false
	return p.next(me, n)
}

// begin sets the first round of op and its loop state.
func (p *plan) begin(me, n int) {
	switch p.op {
	case opSend:
		p.sendTo(p.to, p.size)
		return
	case opRecv:
		p.recvFrom(p.from)
		return
	case opSendRecv:
		p.exchange(p.to, p.size, p.from, true)
		return
	}
	p.cur = round{noise: true}
	p.i, p.acc, p.flag = 1, 0, false
	p.v = (me - p.root + n) % n
	switch p.op {
	case opBroadcast, opScatterBinomial:
		// The lowest set bit of the virtual rank is the distance to the
		// parent; the root's first child is half the power of two at or
		// above n.
		for p.i < n && p.v&p.i == 0 {
			p.i <<= 1
		}
		p.from = (p.v&^p.i + p.root) % n
		p.i >>= 1
	case opAllgather:
		p.i = 0
	case opAllreduceRing:
		p.i, p.acc = 0, max(1, p.size/int64(n))
	case opAllreduceRabenseifner:
		p.acc = max(1, p.size/2)
	}
}

// more sets the current round to op's next one after the first and reports
// whether there is one.
func (p *plan) more(me, n int) bool {
	switch p.op {
	case opBarrier:
		if p.i >= n {
			return false
		}
		p.exchange((me+p.i)%n, controlMessageBytes, (me-p.i+n)%n, false)
		p.i *= 2
	case opBroadcast:
		if p.v != 0 && !p.flag {
			p.flag = true
			p.recvFrom(p.from)
			return true
		}
		for ; p.i >= 1; p.i >>= 1 {
			if p.v&p.i == 0 && p.v+p.i < n {
				p.sendTo((p.v+p.i+p.root)%n, p.size)
				p.i >>= 1
				return true
			}
		}
		return false
	case opReduce:
		for p.i < n {
			mask := p.i
			if p.v&mask != 0 {
				p.i = n
				p.sendTo((p.v&^mask+p.root)%n, p.size)
				return true
			}
			p.i <<= 1
			if partner := p.v | mask; partner < n {
				p.recvFrom((partner + p.root) % n)
				return true
			}
		}
		return false
	case opAllreduce:
		if p.i >= n {
			return false
		}
		partner := me ^ p.i
		p.exchange(partner, p.size, partner, true)
		p.i <<= 1
	case opAlltoall:
		if p.i >= n {
			return false
		}
		if n&(n-1) == 0 {
			partner := me ^ p.i
			p.exchange(partner, p.size, partner, false)
		} else {
			p.exchange((me+p.i)%n, p.size, (me-p.i+n)%n, false)
		}
		p.i++
	case opAllgather:
		if p.i >= n-1 {
			return false
		}
		p.exchange((me+1)%n, p.size, (me-1+n)%n, false)
		p.i++
	case opAllreduceRing:
		// A ring reduce-scatter and a ring allgather: 2(n-1) steps of one
		// block.
		if p.i >= 2*(n-1) {
			return false
		}
		p.exchange((me+1)%n, p.acc, (me-1+n)%n, false)
		p.i++
	case opAllreduceRabenseifner:
		// Recursive halving (flag false), then recursive doubling from the
		// largest mask down.
		if !p.flag && p.i >= n {
			p.flag = true
			p.i = n >> 1
			p.acc = max(1, p.size/int64(n))
		}
		if p.i < 1 {
			return false
		}
		partner := me ^ p.i
		p.exchange(partner, p.acc, partner, true)
		if !p.flag {
			p.acc = max(1, p.acc/2)
			p.i <<= 1
		} else {
			p.acc = min(p.acc*2, p.size)
			p.i >>= 1
		}
	case opAlltoallBruck:
		if p.i >= n {
			return false
		}
		// The blocks whose destination index has bit i set move this round.
		blocks := 0
		for b := 1; b < n; b++ {
			if b&p.i != 0 {
				blocks++
			}
		}
		p.exchange((me+p.i)%n, max(1, int64(blocks)*p.size), (me-p.i+n)%n, false)
		p.i <<= 1
	case opScatterBinomial:
		if p.v != 0 && !p.flag {
			p.flag = true
			p.recvFrom(p.from)
			return true
		}
		for ; p.i >= 1; p.i >>= 1 {
			child := p.v | p.i
			if p.v&p.i != 0 || child >= n {
				continue
			}
			p.sendTo((child+p.root)%n, min(int64(p.i), int64(n-child))*p.size)
			p.i >>= 1
			return true
		}
		return false
	default:
		return false
	}
	return true
}

// collective runs the plan of op, then of then, for root and size on the
// rank. On a communicator of one rank a collective has nothing to exchange
// and returns at once, sampling no host noise.
func (r *Rank) collective(op, then planOp, root int, size int64, kind core.TrafficKind) {
	if r.Size() == 1 {
		return
	}
	r.plan = plan{op: op, then: then, root: root, size: size, kind: kind}
	r.run()
}

// run runs the plan just set on the rank: rounds run inline until one must
// wait, and then the coroutine parks until the scheduler has run the last
// round (see Scheduler.runRunnable).
func (r *Rank) run() {
	if !r.step() {
		r.block()
	}
}

// step runs the rank's plan until it must wait, reporting false, or has run
// its last round, reporting true and clearing the plan. Once r.err is set,
// the remaining rounds still sample host noise, as the blocking calls always
// did, but charge no delay and start no transfer.
func (r *Rank) step() bool {
	p := &r.plan
	for {
		switch p.stage {
		case stageNext:
			if !p.next(r.rank, r.Size()) {
				p.op = opNone
				return true
			}
			p.stage = stagePost
			if p.cur.noise {
				if d := r.sampleNoise(); d > 0 {
					r.delay(d)
					return false
				}
			}
		case stagePost:
			p.stage = stageInject
			if r.err != nil {
				p.stage = stageNext
				continue
			}
			if p.cur.recv {
				r.irecv(&r.recvReq, p.cur.from)
			}
			if p.cur.send {
				p.cur.size = max(p.cur.size, 0)
				var overhead int64
				p.mode, overhead = r.selectSend(&r.sendReq, p.cur.to, p.cur.size, p.kind)
				if overhead > 0 {
					r.delay(overhead)
					return false
				}
			}
		case stageInject:
			p.stage = stageNext
			if p.cur.send {
				r.inject(&r.sendReq, p.cur.size, p.mode)
			}
			if r.err != nil {
				continue
			}
			if p.cur.send {
				r.count(&r.sendReq)
			}
			if p.cur.recv {
				r.count(&r.recvReq)
			}
			if r.waits > 0 {
				return false
			}
		}
	}
}
