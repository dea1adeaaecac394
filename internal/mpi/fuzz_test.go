package mpi

import (
	"slices"
	"testing"

	"dragonfly/internal/network"
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
