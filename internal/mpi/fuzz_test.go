package mpi

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/network"
	"dragonfly/internal/sim"
)

// FuzzMatch decodes bytes into receives posted and messages arriving at one
// rank from 1–8 sources, applies each to the rank's matching queues and to the
// reference map matcher, and checks that the same receives complete in the
// same order with the same messages (compared by Tag), and that both end with
// the same unmatched receives and messages per source. The first byte picks
// the number of sources n = 1 + b%8; each further byte, up to 256, is one
// operation:
//
//	bit 0      0 posts a receive, 1 delivers a message
//	bits 1–7   the source, modulo n
//
// Messages are tagged in arrival order.
func FuzzMatch(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 3})
	f.Add([]byte{7, 1, 3, 5, 7, 9, 11, 13, 15, 14, 12, 10, 8, 6, 4, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sources := 1 + int(data[0]%8)
		c := &Comm{sched: NewScheduler(nil)}
		for i := 0; i < sources; i++ {
			c.ranks = append(c.ranks, &Rank{comm: c, rank: i})
		}
		rank := c.ranks[0]
		ref := newRefMatcher()
		var reqs []*Request
		var refs []*refRequest
		// order lists the receives by index in the order they completed;
		// pending lists the receives not completed yet.
		var order, refOrder, pending, refPending []int
		tag := uint64(0)
		for k, b := range data[1:min(len(data), 257)] {
			src := int(b>>1) % sources
			if b&1 == 0 {
				pending, refPending = append(pending, len(reqs)), append(refPending, len(reqs))
				reqs = append(reqs, rank.Irecv(src))
				refs = append(refs, &refRequest{peer: src})
				ref.matchRecv(refs[len(refs)-1])
			} else {
				tag++
				d := network.Delivery{Tag: tag}
				rank.arrive(src, &d)
				ref.deliver(src, 0, d)
			}
			pending, order = completed(pending, order, func(i int) bool { return reqs[i].Done() })
			refPending, refOrder = completed(refPending, refOrder, func(i int) bool { return refs[i].done })
			if !slices.Equal(order, refOrder) {
				t.Fatalf("op %d: receives completed in order %v, reference %v", k, order, refOrder)
			}
		}
		for _, i := range order {
			if d, want := reqs[i].Delivery(), refs[i].delivery.Tag; d == nil || d.Tag != want {
				t.Fatalf("receive %d got %v, reference got message %d", i, d, want)
			}
		}
		// The unmatched receives and messages of each source, oldest first.
		for src := 0; src < sources; src++ {
			var posted, refPosted []*Request
			for _, q := range rank.posted.items[rank.posted.head:] {
				if q.peer == src {
					posted = append(posted, q)
				}
			}
			for _, rq := range ref.waiting[pairKey{src, 0}] {
				refPosted = append(refPosted, reqs[slices.Index(refs, rq)])
			}
			if !slices.Equal(posted, refPosted) {
				t.Fatalf("source %d: %d receives posted, reference %d (or in another order)", src, len(posted), len(refPosted))
			}
			var tags, refTags []uint64
			for _, m := range rank.unexpected.items[rank.unexpected.head:] {
				if m.src == src {
					tags = append(tags, m.d.Tag)
				}
			}
			for _, d := range ref.mailbox[pairKey{src, 0}] {
				refTags = append(refTags, d.Tag)
			}
			if !slices.Equal(tags, refTags) {
				t.Fatalf("source %d: unexpected messages %v, reference %v", src, tags, refTags)
			}
		}
	})
}

// completed moves the receives of pending that are done to the end of order.
func completed(pending, order []int, done func(int) bool) ([]int, []int) {
	return slices.DeleteFunc(pending, func(i int) bool {
		if done(i) {
			order = append(order, i)
			return true
		}
		return false
	}), order
}

// fuzzCall is one whole-communicator step of FuzzCollectives: run makes the
// call through its plan, ref through the blocking oracle in
// reference_test.go.
type fuzzCall struct {
	name     string
	run, ref func(r *Rank, root int, size int64)
}

// fuzzInvalidSend is the index of the call in which rank root sends to a
// peer that does not exist.
const fuzzInvalidSend = 11

var fuzzCalls = []fuzzCall{
	{"Send/Recv",
		func(r *Rank, _ int, size int64) { pingPong(r, size, r.Send, r.Recv) },
		func(r *Rank, _ int, size int64) { pingPong(r, size, r.refSend, r.refRecv) }},
	{"SendRecv",
		func(r *Rank, _ int, size int64) { r.SendRecv(ringPeers(r, size)) },
		func(r *Rank, _ int, size int64) { r.refSendRecv(ringPeers(r, size)) }},
	{"Barrier",
		func(r *Rank, _ int, _ int64) { r.Barrier() },
		func(r *Rank, _ int, _ int64) { r.refBarrier() }},
	{"Broadcast", (*Rank).Broadcast, (*Rank).refBroadcast},
	{"Allreduce",
		func(r *Rank, _ int, size int64) { r.Allreduce(size) },
		func(r *Rank, _ int, size int64) { r.refAllreduce(size) }},
	{"Alltoall",
		func(r *Rank, _ int, size int64) { r.Alltoall(size) },
		func(r *Rank, _ int, size int64) { r.refAlltoall(size) }},
	{"AllreduceRing",
		func(r *Rank, _ int, size int64) { r.AllreduceRing(size) },
		func(r *Rank, _ int, size int64) { r.refAllreduceRing(size) }},
	{"AllreduceRabenseifner",
		func(r *Rank, _ int, size int64) { r.AllreduceRabenseifner(size) },
		func(r *Rank, _ int, size int64) { r.refAllreduceRabenseifner(size) }},
	{"AlltoallBruck",
		func(r *Rank, _ int, size int64) { r.AlltoallBruck(size) },
		func(r *Rank, _ int, size int64) { r.refAlltoallBruck(size) }},
	{"AlltoallSpread",
		func(r *Rank, _ int, size int64) { r.AlltoallSpread(size) },
		func(r *Rank, _ int, size int64) { r.AlltoallSpread(size) }},
	{"BroadcastScatterAllgather", (*Rank).BroadcastScatterAllgather, (*Rank).refBroadcastScatterAllgather},
	fuzzInvalidSend: {"invalid-peer Send",
		func(r *Rank, root int, size int64) {
			if r.rank == root {
				r.Send(r.Size()+root, size, core.PointToPoint)
			}
		},
		func(r *Rank, root int, size int64) {
			if r.rank == root {
				r.refSend(r.Size()+root, size, core.PointToPoint)
			}
		}},
}

// pingPong exchanges size bytes between ranks 2k and 2k+1: the even rank
// sends first, the odd one receives first.
func pingPong(r *Rank, size int64, send func(int, int64, core.TrafficKind), recv func(int) *network.Delivery) {
	peer := r.rank ^ 1
	if peer >= r.Size() {
		return
	}
	if r.rank%2 == 0 {
		send(peer, size, core.PointToPoint)
		recv(peer)
	} else {
		recv(peer)
		send(peer, size, core.PointToPoint)
	}
}

// ringPeers returns the arguments of a SendRecv of size bytes around the
// communicator ring.
func ringPeers(r *Rank, size int64) (int, int64, int, core.TrafficKind) {
	n := r.Size()
	return (r.rank + 1) % n, size, (r.rank - 1 + n) % n, core.PointToPoint
}

// fuzzStep is one decoded call of FuzzCollectives.
type fuzzStep struct {
	call, root int
	size       int64
}

// FuzzCollectives decodes bytes into a sequence of blocking calls on a
// communicator, runs it through the plans and through the blocking oracle on
// two fresh systems, and checks that both leave the same run: the same error
// (a deadlock, after an invalid-peer send), the same per-rank finish times
// and errors, the same host-noise and SelectMode logs, the same per-node NIC
// counters and the same injected packets. The input is
//
//	byte 0      comm size 2 + b%7 (2–8 ranks on SmallConfig(2))
//	byte 1      bit 0 host noise on; bits 1–2 the overhead period (0: none)
//	then        1 to 6 calls of 3 bytes: call index (modulo the list),
//	            root (modulo the size), size b*16 bytes
//
// Only the first invalid-peer send of an input runs.
func FuzzCollectives(f *testing.F) {
	f.Add([]byte{6, 7, 4, 0, 9, 3, 2, 40})
	f.Add([]byte{2, 1, 0, 1, 3, 1, 0, 2, 11, 1, 1, 4, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0]%7)
		noise, period := data[1]&1 != 0, int(data[1]>>1)%4
		var steps []fuzzStep
		invalid := false
		for k := 2; k+2 < len(data) && len(steps) < 6; k += 3 {
			s := fuzzStep{int(data[k]) % len(fuzzCalls), int(data[k+1]) % n, int64(data[k+2]) * 16}
			if s.call == fuzzInvalidSend {
				if invalid {
					continue
				}
				invalid = true
			}
			steps = append(steps, s)
		}
		if len(steps) == 0 {
			return
		}
		run := func(ref bool) string {
			p := &probe{noise: noise, period: period}
			c := probeComm(t, n, p, 61)
			finish := make([]sim.Time, n)
			err := runComm(c, func(r *Rank) {
				finish[r.rank] = -1
				for _, s := range steps {
					if ref {
						fuzzCalls[s.call].ref(r, s.root, s.size)
					} else {
						fuzzCalls[s.call].run(r, s.root, s.size)
					}
				}
				finish[r.rank] = r.Now()
			})
			var b strings.Builder
			fmt.Fprintf(&b, "run error: %v\n", err)
			for i := 0; i < n; i++ {
				fmt.Fprintf(&b, "rank %d finish %d err %v nic %+v\n", i, finish[i], c.Rank(i).Err(), c.Fabric().NodeCounters(c.Rank(i).Node()))
			}
			fmt.Fprintf(&b, "noise %v\nselect %v\npackets %d\n", p.noiseLog, p.selectLog, c.Fabric().PacketsInjected())
			return b.String()
		}
		if got, want := run(false), run(true); got != want {
			var names []string
			for _, s := range steps {
				names = append(names, fmt.Sprintf("%s(root %d, %d B)", fuzzCalls[s.call].name, s.root, s.size))
			}
			t.Fatalf("%d ranks, noise %v, overhead period %d, calls %v:\nplans:\n%s\noracle:\n%s", n, noise, period, names, got, want)
		}
	})
}
