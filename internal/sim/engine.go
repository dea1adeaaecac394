// Package sim provides a small deterministic discrete-event simulation engine
// used by the Dragonfly network model. Time is measured in NIC clock cycles
// (int64). All randomness is derived from explicitly seeded streams so that
// every experiment is reproducible given a seed.
//
// The engine is built for allocation-free steady state: events are value
// types stored in a slot array recycled through a free-list, ordered by an
// indexed 4-ary min-heap of slot ids. Hot paths (the network fabric, the
// background-noise generators, rank compute delays) schedule typed events —
// a Handler plus two integer arguments — so that a simulated packet hop costs
// no heap allocation at all; closure-based scheduling remains available for
// cold paths. Events fire in strict (At, seq) order, where seq is the
// schedule order, so execution order is a total order independent of the heap
// shape: the engine is byte-compatible with the historical container/heap
// implementation.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a point in simulated time, in NIC clock cycles.
type Time = int64

// Handler receives typed events. Implementations are pointer-shaped (the
// scheduling site converts a pointer into the interface), so scheduling a
// typed event performs no allocation. The two integer arguments are opaque to
// the engine; callers use them as an opcode and operand, or as two operands.
type Handler interface {
	HandleEvent(e *Engine, a, b int64)
}

// EventID is a cancellation handle for a scheduled event. The zero EventID is
// invalid (Cancel ignores it). Handles are generation-counted: once the event
// has fired or been cancelled, the handle goes stale and cancelling it is a
// guaranteed no-op even if the underlying slot has been recycled for a newer
// event.
type EventID uint64

// event is one scheduled unit of work. Events live in Engine.slots and are
// recycled through the free-list; they are never individually heap-allocated.
type event struct {
	at  Time
	seq uint64 // tie-breaker: schedule order, unique per engine epoch

	// Exactly one of fn and h is set. Typed events carry (h, a, b); closure
	// events carry fn.
	fn   func()
	h    Handler
	a, b int64

	gen     uint32 // bumped on every release; stale EventIDs never match
	heapIdx int32  // position in Engine.heap, -1 when not queued
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now   Time
	slots []event
	heap  []int32 // 4-ary min-heap of slot indices, ordered by (at, seq)
	free  []int32 // stack of released slot indices

	seq    uint64
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
// keeping the slot array, heap and free-list storage for reuse. Every pending
// event is dropped and every outstanding EventID goes permanently stale. It
// is the engine half of cross-trial system reuse: a Reset engine behaves
// byte-identically to a freshly constructed one.
func (e *Engine) Reset(seed int64) {
	for i := range e.slots {
		s := &e.slots[i]
		s.fn, s.h = nil, nil
		s.heapIdx = -1
		s.gen++
	}
	// Refill the free stack so slots are handed out in the same (ascending)
	// order a fresh engine would allocate them.
	e.free = e.free[:0]
	for i := len(e.slots) - 1; i >= 0; i-- {
		e.free = append(e.free, int32(i))
	}
	e.heap = e.heap[:0]
	e.now, e.seq, e.nexec, e.halted = 0, 0, 0, false
	e.limit = 0
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
// clamped to the current time. The returned handle may be passed to Cancel.
func (e *Engine) Schedule(at Time, fn func()) EventID {
	return e.schedule(at, fn, nil, 0, 0)
}

// After schedules fn to run delay cycles from the current time.
func (e *Engine) After(delay Time, fn func()) EventID {
	return e.Schedule(e.now+max(delay, 0), fn)
}

// ScheduleCall schedules a typed event: at time at, h.HandleEvent(e, a, b) is
// invoked. Unlike Schedule it allocates nothing when h is a pointer, which is
// what the fabric and noise hot paths rely on. Scheduling in the past is
// clamped to the current time.
func (e *Engine) ScheduleCall(at Time, h Handler, a, b int64) EventID {
	return e.schedule(at, nil, h, a, b)
}

// AfterCall schedules a typed event delay cycles from the current time.
func (e *Engine) AfterCall(delay Time, h Handler, a, b int64) EventID {
	return e.ScheduleCall(e.now+max(delay, 0), h, a, b)
}

// schedule places one event (closure or typed) into a recycled slot and the
// heap, and returns its generation-counted handle.
func (e *Engine) schedule(at Time, fn func(), h Handler, a, b int64) EventID {
	at = max(at, e.now)
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, event{})
		slot = int32(len(e.slots) - 1)
	}
	ev := &e.slots[slot]
	ev.at, ev.seq = at, e.seq
	ev.fn, ev.h, ev.a, ev.b = fn, h, a, b
	e.seq++
	ev.heapIdx = int32(len(e.heap))
	e.heap = append(e.heap, slot)
	e.siftUp(len(e.heap) - 1)
	return makeEventID(slot, ev.gen)
}

// makeEventID packs (slot, gen); slot is stored +1 so the zero EventID stays
// invalid.
func makeEventID(slot int32, gen uint32) EventID {
	return EventID(uint64(gen)<<32 | uint64(uint32(slot+1)))
}

// Cancel removes a previously scheduled event from the queue and reports
// whether it removed anything. Cancelling the zero EventID, an already-fired
// or an already-cancelled event is a guaranteed no-op (the handle's
// generation no longer matches the slot), so stale handles can never corrupt
// the queue or cancel an unrelated recycled event.
func (e *Engine) Cancel(id EventID) bool {
	slot := int32(uint32(id)) - 1
	if slot < 0 || int(slot) >= len(e.slots) {
		return false
	}
	ev := &e.slots[slot]
	if ev.gen != uint32(id>>32) || ev.heapIdx < 0 {
		return false
	}
	e.removeAt(int(ev.heapIdx))
	e.release(slot)
	return true
}

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.heap) }

// Halt stops the run loop after the currently executing event returns.
func (e *Engine) Halt() { e.halted = true }

// Run executes events in time order until the queue is empty, Halt is called,
// or the configured event limit is exceeded (in which case an error is
// returned).
func (e *Engine) Run() error {
	e.halted = false
	for len(e.heap) > 0 && !e.halted {
		if err := e.dispatch(); err != nil {
			return err
		}
	}
	return nil
}

// Step executes exactly one event (the earliest pending one). It returns false
// when the queue is empty. The error mirrors Run's event-limit behaviour.
func (e *Engine) Step() (bool, error) {
	if len(e.heap) == 0 {
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
	for len(e.heap) > 0 && !e.halted {
		if e.slots[e.heap[0]].at > deadline {
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

// dispatch pops the earliest event, advances the clock and executes it. The
// slot is released before the event body runs, so the body may immediately
// reuse it for a new event (self-rescheduling costs no queue growth).
func (e *Engine) dispatch() error {
	slot := e.heap[0]
	ev := &e.slots[slot]
	at, fn, h, a, b := ev.at, ev.fn, ev.h, ev.a, ev.b
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.heap[0] = last
		e.slots[last].heapIdx = 0
		e.siftDown(0)
	}
	e.release(slot)

	if at > e.now {
		e.now = at
	}
	e.nexec++
	if e.limit > 0 && e.nexec > e.limit {
		return fmt.Errorf("sim: event limit %d exceeded at t=%d", e.limit, e.now)
	}
	if h != nil {
		h.HandleEvent(e, a, b)
	} else {
		fn()
	}
	return nil
}

// release returns a slot to the free-list and invalidates its handles.
func (e *Engine) release(slot int32) {
	ev := &e.slots[slot]
	ev.fn, ev.h = nil, nil
	ev.heapIdx = -1
	ev.gen++
	e.free = append(e.free, slot)
}

// --- indexed 4-ary min-heap over slot ids --------------------------------

// less orders slots by (at, seq); seq is unique, so the order is total.
func (e *Engine) less(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

func (e *Engine) siftUp(i int) {
	slot := e.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(slot, e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		e.slots[e.heap[i]].heapIdx = int32(i)
		i = p
	}
	e.heap[i] = slot
	e.slots[slot].heapIdx = int32(i)
}

func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	slot := e.heap[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < min(first+4, n); c++ {
			if e.less(e.heap[c], e.heap[best]) {
				best = c
			}
		}
		if !e.less(e.heap[best], slot) {
			break
		}
		e.heap[i] = e.heap[best]
		e.slots[e.heap[i]].heapIdx = int32(i)
		i = best
	}
	e.heap[i] = slot
	e.slots[slot].heapIdx = int32(i)
}

// removeAt deletes the heap entry at position i (used by Cancel).
func (e *Engine) removeAt(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i < n {
		e.heap[i] = last
		e.slots[last].heapIdx = int32(i)
		e.siftDown(i)
		if e.heap[i] == last {
			e.siftUp(i)
		}
	}
}
