package mpi

import "dragonfly/internal/network"

// Message matching. Each rank keeps the two queues MPICH keeps: the receives
// it posted that no message has matched yet, and the messages that arrived
// before a receive was posted for them (unexpected). MPI defines matching
// order only per source, so an arrival takes the oldest receive posted for
// its source and a receive takes the oldest unexpected message from its
// peer. Both are found by scanning from the oldest entry; the queues are
// short in practice (Underwood and Brightwell, ICPP 2004), and a match at
// the head costs O(1).

// unexpectedMsg is a delivery that arrived before a receive matched it.
type unexpectedMsg struct {
	src int
	d   network.Delivery
}

// fifo is a queue whose consumed prefix is skipped by a head index and
// compacted on push, like the fabric's NIC op queue. remove keeps the order
// of the remaining entries.
type fifo[T any] struct {
	items []T
	head  int
}

// push appends v, compacting the consumed prefix when it dominates the
// backing array.
func (q *fifo[T]) push(v T) {
	if q.head > 32 && q.head*2 >= len(q.items) {
		m := copy(q.items, q.items[q.head:])
		clear(q.items[m:])
		q.items = q.items[:m]
		q.head = 0
	}
	q.items = append(q.items, v)
}

// remove deletes the entry at index i, head <= i < len(items).
func (q *fifo[T]) remove(i int) {
	var zero T
	if i > q.head {
		copy(q.items[i:], q.items[i+1:])
		q.items[len(q.items)-1] = zero
		q.items = q.items[:len(q.items)-1]
		return
	}
	q.items[i] = zero
	if q.head++; q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
}

// arrive hands this rank the delivery of a message from rank src: it
// completes the oldest receive posted for src, or queues the message as
// unexpected. It runs inside an engine event callback.
func (r *Rank) arrive(src int, d *network.Delivery) {
	for i := r.posted.head; i < len(r.posted.items); i++ {
		if q := r.posted.items[i]; q.peer == src {
			r.posted.remove(i)
			q.complete(d)
			return
		}
	}
	r.unexpected.push(unexpectedMsg{src: src, d: *d})
}

// match completes the receive q with the oldest unexpected message from its
// peer, or posts it.
func (r *Rank) match(q *Request) {
	for i := r.unexpected.head; i < len(r.unexpected.items); i++ {
		if m := &r.unexpected.items[i]; m.src == q.peer {
			q.complete(&m.d)
			r.unexpected.remove(i)
			return
		}
	}
	r.posted.push(q)
}
