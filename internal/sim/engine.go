// Package sim provides a small deterministic discrete-event simulation engine
// used by the Dragonfly network model. Time is measured in NIC clock cycles
// (int64). All randomness is derived from explicitly seeded streams so that
// every experiment is reproducible given a seed.
//
// Every event is a Handler plus two integer arguments. Hot paths (the network
// fabric, the background-noise generators, rank compute delays) pass a
// pointer-shaped Handler, so a simulated packet hop costs no heap allocation;
// Schedule and After wrap a closure as a func-typed Handler, which is
// pointer-shaped too.
//
// The queue is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, 1990): the
// clock never runs backwards, so events are ordered by bucket index with no
// comparisons. The engine keeps last, the time of the events in bucket 0, and
// an event at time at lives in bucket bits.Len64(at ^ last). Scheduling is
// one append. When bucket 0 runs dry, dispatch refills it: it takes the
// lowest non-empty bucket, sets last to that bucket's least time and moves
// the bucket's events, in order, into the buckets their times now select,
// each strictly lower than the one they left.
//
// Events fire in exact (at, seq) order, where seq is the schedule order, with
// no seq stored:
//
//   - every pending event has at ≥ last, and last ≤ now whenever anything is
//     scheduled (ScheduleCall clamps at to now);
//   - equal times always land in the same bucket;
//   - all times in bucket i are below all times in bucket j for i < j, since
//     an event's bucket is the highest bit in which its time differs from
//     last, and there its time has a 1 where last has a 0;
//   - buckets are FIFO and a refill moves a bucket in order, so events of
//     equal time keep schedule order.
//
// RunUntil never refills: it peeks by scanning the lowest non-empty bucket
// without moving anything. A refill would set last to the next event's time,
// which may lie past the deadline RunUntil then moves the clock to, and an
// event scheduled afterwards but before that time would break at ≥ last.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Time is a point in simulated time, in NIC clock cycles.
type Time = int64

// Handler receives events. Implementations are pointer-shaped (the
// scheduling site converts a pointer into the interface), so scheduling a
// typed event performs no allocation. The two integer arguments are opaque to
// the engine; callers use them as an opcode and operand, or as two operands.
type Handler interface {
	HandleEvent(e *Engine, a, b int64)
}

// funcHandler adapts a closure to Handler. A func value is pointer-shaped, so
// boxing one in the interface allocates nothing beyond the closure itself.
type funcHandler func()

func (f funcHandler) HandleEvent(*Engine, int64, int64) { f() }

// event is one scheduled unit of work, stored by value in the buckets.
type event struct {
	at   Time
	h    Handler
	a, b int64
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now     Time
	last    Time        // time of the events in buckets[0]
	buckets [65][]event // an event at time at lives in buckets[bits.Len64(at^last)]
	mask    uint64      // bit i-1 set when buckets[i] (i ≥ 1) is non-empty
	head    int         // read index of buckets[0]
	pending int

	rng    *rand.Rand
	seed   int64
	nexec  uint64
	limit  uint64 // safety limit on executed events; 0 means unlimited
	halted bool
}

// NewEngine returns an engine whose clock starts at 0 and whose random stream
// is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:  rand.New(rand.NewSource(seed)),
		seed: seed,
	}
}

// Reset rewinds the engine to the state NewEngine(seed) would produce while
// keeping the bucket storage for reuse. Every pending event is dropped. It is
// the engine half of cross-trial system reuse: a Reset engine behaves
// byte-identically to a freshly constructed one.
func (e *Engine) Reset(seed int64) {
	for i := range e.buckets {
		clear(e.buckets[i])
		e.buckets[i] = e.buckets[i][:0]
	}
	e.now, e.last, e.mask, e.head, e.pending = 0, 0, 0, 0, 0
	e.nexec, e.limit, e.halted = 0, 0, false
	e.seed = seed
	e.rng.Seed(seed)
}

// Now returns the current simulated time in cycles.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine was created (or last Reset) with.
func (e *Engine) Seed() int64 { return e.seed }

// Rand returns the engine's deterministic random stream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// ExecutedEvents reports how many events have been executed so far.
func (e *Engine) ExecutedEvents() uint64 { return e.nexec }

// SetEventLimit installs a safety cap on the number of executed events.
// Run returns an error when the cap is exceeded. A limit of 0 disables the cap.
func (e *Engine) SetEventLimit(limit uint64) { e.limit = limit }

// Schedule schedules fn to run at absolute time at. Scheduling in the past is
// clamped to the current time.
func (e *Engine) Schedule(at Time, fn func()) {
	e.ScheduleCall(at, funcHandler(fn), 0, 0)
}

// After schedules fn to run delay cycles from the current time.
func (e *Engine) After(delay Time, fn func()) {
	e.ScheduleCall(e.now+max(delay, 0), funcHandler(fn), 0, 0)
}

// ScheduleCall schedules a typed event: at time at, h.HandleEvent(e, a, b) is
// invoked. Unlike Schedule it allocates nothing when h is a pointer, which is
// what the fabric and noise hot paths rely on. Scheduling in the past is
// clamped to the current time. The event is appended to the bucket its time
// selects.
func (e *Engine) ScheduleCall(at Time, h Handler, a, b int64) {
	at = max(at, e.now)
	i := bits.Len64(uint64(at ^ e.last))
	if i > 0 {
		e.mask |= 1 << (i - 1)
	} else if e.head > 32 && e.head*2 >= len(e.buckets[0]) {
		// Compact bucket 0's consumed prefix once it dominates the backing
		// array, so a long run of same-time events cannot grow it unboundedly.
		b0 := e.buckets[0]
		n := copy(b0, b0[e.head:])
		clear(b0[n:])
		e.buckets[0], e.head = b0[:n], 0
	}
	e.buckets[i] = append(e.buckets[i], event{at: at, h: h, a: a, b: b})
	e.pending++
}

// AfterCall schedules a typed event delay cycles from the current time.
func (e *Engine) AfterCall(delay Time, h Handler, a, b int64) {
	e.ScheduleCall(e.now+max(delay, 0), h, a, b)
}

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.pending }

// Halt stops the run loop after the currently executing event returns.
func (e *Engine) Halt() { e.halted = true }

// Run executes events in time order until the queue is empty, Halt is called,
// or the configured event limit is exceeded (in which case an error is
// returned).
func (e *Engine) Run() error {
	e.halted = false
	for e.pending > 0 && !e.halted {
		if err := e.dispatch(); err != nil {
			return err
		}
	}
	return nil
}

// Step executes exactly one event (the earliest pending one). It returns false
// when the queue is empty. The error mirrors Run's event-limit behaviour.
func (e *Engine) Step() (bool, error) {
	if e.pending == 0 {
		return false, nil
	}
	if err := e.dispatch(); err != nil {
		return false, err
	}
	return true, nil
}

// RunUntil executes events in time order until the queue is empty or the next
// event would fire after deadline. The clock is advanced to deadline if the
// queue empties earlier.
func (e *Engine) RunUntil(deadline Time) error {
	e.halted = false
	for e.pending > 0 && !e.halted {
		if e.peek() > deadline {
			break
		}
		if err := e.dispatch(); err != nil {
			return err
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
	return nil
}

// peek returns the earliest pending time without refilling bucket 0 (see the
// package comment). The queue must not be empty.
func (e *Engine) peek() Time {
	if e.head < len(e.buckets[0]) {
		return e.last
	}
	b := e.buckets[bits.TrailingZeros64(e.mask)+1]
	at := b[0].at
	for _, ev := range b[1:] {
		at = min(at, ev.at)
	}
	return at
}

// dispatch pops the earliest event, advances the clock and executes it. The
// queue must not be empty.
func (e *Engine) dispatch() error {
	if e.head == len(e.buckets[0]) {
		e.refill()
	}
	b0 := e.buckets[0]
	ev := b0[e.head]
	b0[e.head].h = nil // a consumed slot keeps nothing reachable
	e.head++
	e.pending--

	if ev.at > e.now {
		e.now = ev.at
	}
	e.nexec++
	if e.limit > 0 && e.nexec > e.limit {
		return fmt.Errorf("sim: event limit %d exceeded at t=%d", e.limit, e.now)
	}
	ev.h.HandleEvent(e, ev.a, ev.b)
	return nil
}

// refill empties the consumed bucket 0, advances last to the least time in
// the lowest non-empty bucket and redistributes that bucket's events, in
// order, into the buckets their times now select. Every event moves to a
// strictly lower bucket, and buckets below the source are empty, so each
// destination receives the source's events in their original order.
func (e *Engine) refill() {
	e.buckets[0], e.head = e.buckets[0][:0], 0
	e.last = e.peek()
	i := bits.TrailingZeros64(e.mask) + 1
	src := e.buckets[i]
	e.mask &^= 1 << (i - 1)
	for k, ev := range src {
		src[k].h = nil // the moved copy is the live one
		j := bits.Len64(uint64(ev.at ^ e.last))
		if j > 0 {
			e.mask |= 1 << (j - 1)
		}
		e.buckets[j] = append(e.buckets[j], ev)
	}
	e.buckets[i] = src[:0]
}
