package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Sharded partitions an Engine's event stream across per-group shard heaps
// and advances them with a conservative parallel discrete-event loop. The
// partition domains are dragonfly groups: every router, NIC and rank belongs
// to exactly one group, groups are mapped contiguously onto shards, and
// groups are connected only by global links whose fixed latency supplies the
// guaranteed lookahead a conservative engine needs.
//
// Two event classes flow through the shard heaps, with one hard rule each:
//
//   - Resident events (ScheduleResident) are serial-domain events that
//     merely *live* on the shard that owns their group — the fabric files
//     packet hops under the group of the router or NIC they touch. They keep
//     the engine's global (at, seq) key, so their execution order — and the
//     bytes every golden table hashes — is identical to the unsharded engine
//     at any shard count, by construction. They are executed one at a time
//     (the paper's globally-adaptive UGAL consumes one shared random stream
//     and a global congestion view, which makes packet-level execution
//     order-serial if output must stay byte-identical).
//
//   - Local events (ScheduleLocal / ShardContext.Schedule) are the
//     conforming-parallel class: a local handler may only touch state of its
//     own group, schedule into its own group at any future time, or schedule
//     into another group at least Lookahead() cycles ahead. Under Run, all
//     shards execute their local events concurrently inside bounded horizon
//     windows, exchanging cross-group events through per-pair SPSC
//     mailboxes that are drained at the window barrier.
//
// Determinism is the contract, not an aspiration: local events are keyed by
// (at, class, dstGroup, srcGroup, srcSeq) where srcSeq is a per-source-group
// schedule counter assigned at scheduling time. The key never depends on
// shard count, window boundaries or drain order, so a same-seed run with
// Shards=N is byte-identical to serial whether it is driven by Run, Step or
// RunUntil.
//
// A Sharded attaches to its Engine at construction: Engine.Run, Step,
// RunUntil and Pending transparently delegate to it, so every existing drive
// path (the cooperative MPI scheduler, the batch scheduler, Engine().Run()
// through the facade escape hatch) observes the complete event stream.
type Sharded struct {
	engine    *Engine
	groups    int
	shards    int
	lookahead Time

	// shardOf maps group -> shard; groups are assigned contiguously so a
	// shard owns a dense run of groups (matching the topology's
	// group-contiguous router/NIC ID ranges).
	shardOf []int32

	resident []shardHeap // per shard: serial-domain events, global (at, seq) keys
	local    []shardHeap // per shard: conforming-parallel events
	nlocal   int         // total local events pending across shards

	// deferred holds serial-domain events produced inside parallel windows
	// (ShardContext.ScheduleSerial). They are keyed like local events —
	// (at, class, dst, src, per-src-group seq) — so their order never depends
	// on shard count or window boundaries, and they execute in the serial
	// domain at the first barrier at or after their timestamp.
	deferred shardHeap

	// srcSeq is the per-group schedule counter local event keys embed. Each
	// counter is written only by the shard that owns the group (or by the
	// single-threaded serial context), so windows never race on it.
	srcSeq []uint64

	// mailboxes[src*shards+dst] buffers cross-shard events: resident
	// handoffs while a resident event executes, local cross-group posts
	// while a window runs. Each cell has exactly one writer (the source
	// shard) and one reader (the coordinator at the barrier), the SPSC
	// discipline that keeps the hot path lock-free.
	mailboxes [][]shardEvent

	// execShard is the shard whose resident event is currently executing
	// (-1 otherwise); ScheduleResident uses it to route cross-shard handoffs
	// through the mailboxes.
	execShard int32

	// windowActive guards the serial-domain APIs against misuse from inside
	// a parallel window, turning a silent data race into a panic.
	windowActive atomic.Bool

	// ctx holds one reusable ShardContext per shard.
	ctx []ShardContext

	// Per-shard window tallies, written by each worker in its own slot and
	// folded in at the barrier; the barrier re-raises the lowest-shard panic
	// so failure order is deterministic.
	workerPanic  []any
	workerMaxAt  []Time
	workerNexec  []uint64
	workerPushed []uint64

	// windows and parallelWindows count horizon windows executed and how
	// many of them had two or more shards active (scaling diagnostics).
	// localExec counts conforming-parallel events executed inside windows —
	// the numerator of the "conforming event fraction" diagnostics report.
	windows         uint64
	parallelWindows uint64
	crossPosts      uint64
	localExec       uint64

	// Barrier observability: batchedWindows counts windows that opened
	// immediately after another window with no serial dispatch in between
	// (back-to-back windows are the payoff of a near-empty serial domain);
	// occupancySum accumulates the number of active shards per window, so
	// occupancySum/windows is the mean window occupancy; barrierWait is the
	// cumulative wall-clock time the coordinator spent parked at window
	// barriers. barrierWait is a wall-clock diagnostic only — it never feeds
	// back into simulated time or event order.
	batchedWindows uint64
	occupancySum   uint64
	barrierWait    time.Duration
	prevWasWindow  bool

	// Persistent worker pool. Workers are spawned lazily at the first
	// multi-shard window, parked on their per-shard wake channel between
	// windows, and torn down by Shutdown (run completion, Engine.Reset, or
	// the MPI scheduler's shutdown paths). poolWake carries the window end;
	// closing it is the quit signal. poolDone is the barrier: every woken
	// worker sends exactly one token per window, panics included.
	poolWake []chan Time
	poolDone chan int
	poolWG   sync.WaitGroup
	poolUp   bool

	// actCursor is the reusable per-shard cursor array for the barrier-action
	// k-way merge (runBarrierActions).
	actCursor []int
}

// event classes, ordered: at equal timestamps serial-domain events execute
// before conforming-parallel ones (a fixed, shard-count-independent rule).
// Deferred-serial events (ShardContext.ScheduleSerial) sit between the two:
// they are serial-domain work produced inside windows that executes at the
// first barrier at or after its timestamp.
const (
	classResident   = 0
	classSerialPost = 1
	classLocal      = 2
)

// shardEvent is one event parked in a shard heap or mailbox. Resident events
// use seq = global engine sequence (src is unused); local events use
// (dst group, src group, per-src-group seq).
type shardEvent struct {
	at    Time
	seq   uint64
	dst   int32 // owning (destination) group
	src   int32 // scheduling (source) group, local events only
	class int8
	h     Handler
	lh    LocalHandler
	a, b  int64
}

// LocalHandler receives conforming-parallel events. Implementations must
// only touch state owned by the executing event's group; the ShardContext
// is the sole legal scheduling interface (the *Engine is off-limits inside a
// window).
type LocalHandler interface {
	HandleLocalEvent(sc *ShardContext, a, b int64)
}

// NewSharded builds a sharded driver over engine with the given number of
// partition domains (groups), worker shards and lookahead, and attaches it:
// from here on the engine's Run/Step/RunUntil/Pending delegate to the
// sharded loop. Shards is clamped to [1, groups]; lookahead must be
// positive — it is the minimum cross-group event latency (for the fabric,
// the minimum global-link traversal time) that bounds each horizon window.
func NewSharded(engine *Engine, groups, shards int, lookahead Time) (*Sharded, error) {
	if engine == nil {
		return nil, fmt.Errorf("sim: NewSharded needs an engine")
	}
	if engine.owner != nil {
		return nil, fmt.Errorf("sim: engine already has a sharded driver attached")
	}
	if groups < 1 {
		return nil, fmt.Errorf("sim: NewSharded needs at least one group, got %d", groups)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: NewSharded needs a positive lookahead, got %d", lookahead)
	}
	if shards < 1 {
		shards = 1
	}
	if shards > groups {
		shards = groups
	}
	s := &Sharded{
		engine:       engine,
		groups:       groups,
		shards:       shards,
		lookahead:    lookahead,
		shardOf:      make([]int32, groups),
		resident:     make([]shardHeap, shards),
		local:        make([]shardHeap, shards),
		srcSeq:       make([]uint64, groups),
		mailboxes:    make([][]shardEvent, shards*shards),
		execShard:    -1,
		ctx:          make([]ShardContext, shards),
		workerPanic:  make([]any, shards),
		workerMaxAt:  make([]Time, shards),
		workerNexec:  make([]uint64, shards),
		workerPushed: make([]uint64, shards),
		actCursor:    make([]int, shards),
	}
	// Contiguous block partition: shard i owns groups [i*q+min(i,r), ...),
	// the same arithmetic at every shard count so ownership is predictable.
	q, r := groups/shards, groups%shards
	g := 0
	for i := 0; i < shards; i++ {
		n := q
		if i < r {
			n++
		}
		for j := 0; j < n; j++ {
			s.shardOf[g] = int32(i)
			g++
		}
	}
	for i := range s.ctx {
		s.ctx[i] = ShardContext{s: s, shard: int32(i)}
	}
	engine.owner = s
	return s, nil
}

// Engine returns the engine this driver is attached to.
func (s *Sharded) Engine() *Engine { return s.engine }

// Shards returns the number of worker shards.
func (s *Sharded) Shards() int { return s.shards }

// Groups returns the number of partition domains.
func (s *Sharded) Groups() int { return s.groups }

// Lookahead returns the horizon-window bound in cycles.
func (s *Sharded) Lookahead() Time { return s.lookahead }

// ShardOf returns the shard that owns group g.
func (s *Sharded) ShardOf(g int) int { return int(s.shardOf[g]) }

// Windows returns how many horizon windows the driver has executed and how
// many of them ran two or more shards concurrently.
func (s *Sharded) Windows() (total, parallel uint64) { return s.windows, s.parallelWindows }

// CrossPosts returns how many cross-shard events have passed through the
// mailboxes.
func (s *Sharded) CrossPosts() uint64 { return s.crossPosts }

// ConformingExecuted returns how many conforming-parallel events have been
// executed inside horizon windows. Together with Engine.ExecutedEvents it
// yields the conforming event fraction — the share of the event stream that
// is eligible for multicore execution.
func (s *Sharded) ConformingExecuted() uint64 { return s.localExec }

// WindowStats is the per-run barrier/window diagnostic bundle exposed through
// System.Sharded(): how many horizon windows ran, how many of them ran with
// two or more shards active, how many opened back-to-back with no serial
// dispatch in between (micro-batching), the mean number of active shards per
// window, and the cumulative wall-clock time the coordinator spent parked at
// window barriers.
type WindowStats struct {
	Windows         uint64
	ParallelWindows uint64
	BatchedWindows  uint64
	MeanOccupancy   float64
	BarrierWait     time.Duration
}

// WindowStats returns the driver's window/barrier counters for the current
// run (Engine.Reset rewinds them).
func (s *Sharded) WindowStats() WindowStats {
	ws := WindowStats{
		Windows:         s.windows,
		ParallelWindows: s.parallelWindows,
		BatchedWindows:  s.batchedWindows,
		BarrierWait:     s.barrierWait,
	}
	if s.windows > 0 {
		ws.MeanOccupancy = float64(s.occupancySum) / float64(s.windows)
	}
	return ws
}

// pending returns the number of events parked in shard heaps (the engine's
// own heap is counted by the caller).
func (s *Sharded) pending() int {
	n := s.nlocal + len(s.deferred.ev)
	for i := range s.resident {
		n += len(s.resident[i].ev)
	}
	return n
}

// reset drops every shard-parked event and rewinds the local sequence
// counters; Engine.Reset calls it so a reset sharded system behaves
// byte-identically to a freshly built one.
func (s *Sharded) reset() {
	s.Shutdown()
	for i := range s.resident {
		s.resident[i].ev = s.resident[i].ev[:0]
		s.local[i].ev = s.local[i].ev[:0]
	}
	for i := range s.mailboxes {
		s.mailboxes[i] = s.mailboxes[i][:0]
	}
	for i := range s.srcSeq {
		s.srcSeq[i] = 0
	}
	for i := range s.ctx {
		sc := &s.ctx[i]
		sc.posts = sc.posts[:0]
		sc.sposts = sc.sposts[:0]
		sc.dposts = sc.dposts[:0]
	}
	s.deferred.ev = s.deferred.ev[:0]
	s.nlocal = 0
	s.execShard = -1
	s.windows, s.parallelWindows, s.crossPosts, s.localExec = 0, 0, 0, 0
	s.batchedWindows, s.occupancySum = 0, 0
	s.barrierWait = 0
	s.prevWasWindow = false
}

// ScheduleResident schedules a serial-domain event owned by group g: it is
// parked on g's shard heap but keyed by the engine's global (at, seq)
// counter, so it executes exactly where the unsharded engine would have
// executed it. The fabric files packet inject/deliver events here. Calling
// it from inside a parallel window panics — resident events belong to the
// serial domain by definition.
func (s *Sharded) ScheduleResident(g int32, at Time, h Handler, a, b int64) {
	if s.windowActive.Load() {
		panic("sim: ScheduleResident called from inside a parallel window")
	}
	e := s.engine
	at = max(at, e.now)
	ev := shardEvent{at: at, seq: e.seq, dst: g, class: classResident, h: h, a: a, b: b}
	e.seq++
	dst := s.shardOf[g]
	if cur := s.execShard; cur >= 0 && cur != dst {
		// Cross-group handoff while another shard's resident event executes:
		// park it in the SPSC mailbox; the dispatcher drains it (in canonical
		// key order — the key is already assigned) when the event returns.
		s.mailboxes[int(cur)*s.shards+int(dst)] = append(s.mailboxes[int(cur)*s.shards+int(dst)], ev)
		s.crossPosts++
		return
	}
	s.resident[dst].push(ev)
}

// ScheduleLocal schedules a conforming-parallel event into group g from
// outside any window (setup code, serial-domain handlers). Inside a window,
// local handlers use ShardContext.Schedule instead.
func (s *Sharded) ScheduleLocal(g int32, at Time, h LocalHandler, a, b int64) {
	if s.windowActive.Load() {
		panic("sim: ScheduleLocal called from inside a parallel window; use ShardContext.Schedule")
	}
	at = max(at, s.engine.now)
	ev := shardEvent{at: at, seq: s.srcSeq[g], dst: g, src: g, class: classLocal, lh: h, a: a, b: b}
	s.srcSeq[g]++
	s.local[s.shardOf[g]].push(ev)
	s.nlocal++
}

// ShardContext is the execution context handed to LocalHandlers: the
// executing event's group and simulated time, and the only legal scheduling
// interface inside a parallel window.
type ShardContext struct {
	s     *Sharded
	shard int32
	group int32
	now   Time
	// src and seq are the executing event's source group and per-src-group
	// sequence number: together with (now, group) they form the canonical key
	// Defer stamps onto barrier actions.
	src    int32
	seq    uint64
	posts  []shardEvent // same-shard pushes deferred until the pop loop ends
	sposts []shardEvent // deferred-serial posts, settled at the barrier
	dposts []shardEvent // barrier actions (Defer), merged and run at the barrier
}

// Now returns the executing event's simulated time. During a parallel
// window, shards sit at different local times; this is the executing
// shard's, not the global clock's.
func (sc *ShardContext) Now() Time { return sc.now }

// Group returns the group the executing event belongs to.
func (sc *ShardContext) Group() int32 { return sc.group }

// Shard returns the executing shard.
func (sc *ShardContext) Shard() int { return int(sc.shard) }

// Lookahead returns the minimum latency a cross-group Schedule must respect.
func (sc *ShardContext) Lookahead() Time { return sc.s.lookahead }

// Schedule schedules a conforming-parallel event into group g. Same-group
// events may fire at any at >= Now(); cross-group events must respect the
// lookahead (at >= Now() + Lookahead()) — that bound is what lets other
// shards execute the current window without seeing them, so violating it
// panics deterministically instead of corrupting the run.
func (sc *ShardContext) Schedule(g int32, at Time, h LocalHandler, a, b int64) {
	s := sc.s
	if at < sc.now {
		at = sc.now
	}
	ev := shardEvent{at: at, seq: s.srcSeq[sc.group], dst: g, src: sc.group, class: classLocal, lh: h, a: a, b: b}
	s.srcSeq[sc.group]++
	if g == sc.group {
		sc.posts = append(sc.posts, ev)
		return
	}
	if at < sc.now+s.lookahead {
		panic(fmt.Sprintf("sim: cross-group event from group %d to %d at t=%d violates lookahead %d (now %d)",
			sc.group, g, at, s.lookahead, sc.now))
	}
	dst := s.shardOf[g]
	if dst == sc.shard {
		sc.posts = append(sc.posts, ev)
		return
	}
	sc.mail(dst, ev)
}

// After schedules a same-group event delay cycles from Now().
func (sc *ShardContext) After(delay Time, h LocalHandler, a, b int64) {
	sc.Schedule(sc.group, sc.now+max(delay, 0), h, a, b)
}

// ScheduleSerial schedules a serial-domain event from inside a parallel
// window. The event is parked at the barrier and executes on the coordinator
// goroutine at the first barrier at or after at, ordered by the same
// shard-count-independent key as local events (at, class, group, src, seq) —
// it can never preempt the window that scheduled it, so an event whose time
// falls inside the current window executes "late" with the engine clock
// already advanced, exactly like an engine event scheduled in the past. Use
// it for follow-up work that needs the full serial-domain API.
func (sc *ShardContext) ScheduleSerial(at Time, h Handler, a, b int64) {
	s := sc.s
	if at < sc.now {
		at = sc.now
	}
	ev := shardEvent{at: at, seq: s.srcSeq[sc.group], dst: sc.group, src: sc.group, class: classSerialPost, h: h, a: a, b: b}
	s.srcSeq[sc.group]++
	sc.sposts = append(sc.sposts, ev)
}

// Defer registers h.HandleEvent(engine, a, b) to run serially on the
// coordinator goroutine at this window's barrier. It is the promotion
// mechanism for serial-domain side effects of conforming-parallel events:
// the event itself (rank-compute wakeup bookkeeping, delivery-lane
// accounting) executes inside the window as group-owned work, and only the
// callback that needs the full serial-domain API — marking a rank runnable,
// firing delivery observers — waits for the barrier.
//
// Actions carry the executing event's canonical (time, class, dstGroup,
// srcGroup, seq) key and run in that order, merged across shards, so the
// barrier-action sequence — and everything downstream of it, like the MPI
// scheduler's FIFO runnable queue — is byte-identical at every shard count
// and in both drive modes. Actions from the same event run in registration
// order. The engine clock has already been folded forward to the window
// maximum when an action runs, exactly like a deferred-serial event.
func (sc *ShardContext) Defer(h Handler, a, b int64) {
	sc.dposts = append(sc.dposts, shardEvent{
		at: sc.now, seq: sc.seq, dst: sc.group, src: sc.src, class: classLocal, h: h, a: a, b: b,
	})
}

// mail appends to the (sc.shard, dst) SPSC mailbox.
func (sc *ShardContext) mail(dst int32, ev shardEvent) {
	i := int(sc.shard)*sc.s.shards + int(dst)
	sc.s.mailboxes[i] = append(sc.s.mailboxes[i], ev)
}

// --- drive loop -----------------------------------------------------------

// nextKey summarizes the earliest pending event of one source.
type nextKey struct {
	at  Time
	seq uint64
	ok  bool
}

// nextSerial returns the earliest serial-domain event across the engine heap,
// every resident shard heap and the deferred heap, and where it lives (-1 =
// engine heap, -2 = deferred heap, otherwise the shard index). At equal
// timestamps the class-0 stream (engine + resident, globally sequenced) wins
// over deferred-serial events, matching the class order.
//
// clip is the earliest class-0 event alone (engine + resident, without the
// deferred heap): horizon windows are clipped only at class-0 events.
// Deferred-serial events execute at the first barrier at or after their
// timestamp by definition, so a window may legally run past one — that is
// precisely what keeps windows near the full lookahead when delivery
// completions are dense in simulated time. Both keys derive from global heap
// state only, so window boundaries stay shard-count independent.
func (s *Sharded) nextSerial() (key, clip nextKey, shard int) {
	e := s.engine
	shard = -1
	if len(e.heap) > 0 {
		ev := &e.slots[e.heap[0]]
		key = nextKey{at: ev.at, seq: ev.seq, ok: true}
	}
	for i := range s.resident {
		h := &s.resident[i]
		if len(h.ev) == 0 {
			continue
		}
		head := &h.ev[0]
		if !key.ok || head.at < key.at || (head.at == key.at && head.seq < key.seq) {
			key = nextKey{at: head.at, seq: head.seq, ok: true}
			shard = i
		}
	}
	clip = key
	if len(s.deferred.ev) > 0 {
		head := &s.deferred.ev[0]
		if !key.ok || head.at < key.at {
			key = nextKey{at: head.at, seq: head.seq, ok: true}
			shard = -2
		}
	}
	return key, clip, shard
}

// nextLocal returns the earliest conforming-parallel event across the local
// shard heaps (by the canonical key) and which shard holds it; shard is -1
// when no local event is pending.
func (s *Sharded) nextLocal() (at Time, shard int) {
	shard = -1
	var best *shardEvent
	for i := range s.local {
		h := &s.local[i]
		if len(h.ev) == 0 {
			continue
		}
		head := &h.ev[0]
		if best == nil || eventLess(head, best) {
			best, shard = head, i
		}
	}
	if best != nil {
		at = best.at
	}
	return at, shard
}

// run is Engine.Run's sharded body: execute events in canonical order until
// every heap is empty or Halt is called, batching runs of conforming-
// parallel events into concurrent horizon windows.
func (s *Sharded) run() error {
	e := s.engine
	e.halted = false
	return s.drive(maxTime)
}

// runUntil is Engine.RunUntil's sharded body.
func (s *Sharded) runUntil(deadline Time) error {
	e := s.engine
	e.halted = false
	if err := s.drive(deadline); err != nil {
		return err
	}
	if e.now < deadline {
		e.now = deadline
	}
	return nil
}

const maxTime = Time(1)<<62 - 1

// drive executes events whose time is <= deadline in canonical order.
func (s *Sharded) drive(deadline Time) error {
	e := s.engine
	for !e.halted {
		serial, clip, serialShard := s.nextSerial()
		localAt, localShard := s.nextLocal()
		switch {
		case !serial.ok && localShard < 0:
			// Natural completion: every heap is empty, the run is over. Park
			// nothing — tear the worker pool down so a finished run leaves no
			// goroutines behind.
			s.Shutdown()
			return nil
		case localShard >= 0 && (!serial.ok || localAt < serial.at):
			// A conforming-parallel event is strictly earliest (ties go to
			// the serial domain). Open a horizon window up to the lookahead
			// bound, clipped so no class-0 serial event or the deadline falls
			// inside it (deferred-serial events wait for the barrier instead
			// of clipping — see nextSerial).
			if localAt > deadline {
				return nil
			}
			windowEnd := localAt + s.lookahead
			if clip.ok && clip.at < windowEnd {
				windowEnd = clip.at
			}
			if deadline < maxTime && deadline+1 < windowEnd {
				windowEnd = deadline + 1
			}
			if err := s.runWindow(windowEnd); err != nil {
				return err
			}
		default:
			if serial.at > deadline {
				return nil
			}
			if err := s.dispatchSerial(serialShard); err != nil {
				return err
			}
		}
	}
	return nil
}

// step advances the sharded loop by one unit of work: one serial-domain
// event, or — when a conforming-parallel event is strictly earliest — one
// full horizon window. It is Engine.Step's sharded body: the cooperative MPI
// scheduler interleaves rank turns with engine progress, and because ranks
// only become runnable from serial-domain callbacks, batching a window of
// conforming events into one Step keeps the scheduler contract while letting
// the window workers run concurrently. The window boundaries are computed
// from global heap state exactly as under Run, so a Step-driven run is
// byte-identical to a Run-driven one.
func (s *Sharded) step() (bool, error) {
	serial, clip, serialShard := s.nextSerial()
	localAt, localShard := s.nextLocal()
	switch {
	case !serial.ok && localShard < 0:
		s.Shutdown()
		return false, nil
	case localShard >= 0 && (!serial.ok || localAt < serial.at):
		windowEnd := localAt + s.lookahead
		if clip.ok && clip.at < windowEnd {
			windowEnd = clip.at
		}
		if err := s.runWindow(windowEnd); err != nil {
			return false, err
		}
	default:
		if err := s.dispatchSerial(serialShard); err != nil {
			return false, err
		}
	}
	return true, nil
}

// dispatchSerial executes the earliest serial-domain event: the engine-heap
// head (shard == -1), a deferred-serial event (shard == -2) or a resident
// shard-heap head.
func (s *Sharded) dispatchSerial(shard int) error {
	s.prevWasWindow = false
	e := s.engine
	if shard == -1 {
		return e.dispatch()
	}
	if shard == -2 {
		ev := s.deferred.pop()
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
	ev := s.resident[shard].pop()
	if ev.at > e.now {
		e.now = ev.at
	}
	e.nexec++
	if e.limit > 0 && e.nexec > e.limit {
		return fmt.Errorf("sim: event limit %d exceeded at t=%d", e.limit, e.now)
	}
	s.execShard = int32(shard)
	ev.h.HandleEvent(e, ev.a, ev.b)
	s.execShard = -1
	// Drain the cross-shard handoffs the event produced; their keys were
	// assigned at scheduling time, so drain order is irrelevant.
	base := shard * s.shards
	for dst := 0; dst < s.shards; dst++ {
		box := s.mailboxes[base+dst]
		if len(box) == 0 {
			continue
		}
		for i := range box {
			s.resident[dst].push(box[i])
		}
		s.mailboxes[base+dst] = box[:0]
	}
	return nil
}

// settleContext moves a context's deferred same-shard posts, its
// deferred-serial posts and every populated mailbox row of its shard into
// the destination heaps. Serial-only (window barrier).
func (s *Sharded) settleContext(sc *ShardContext) {
	for i := range sc.posts {
		ev := sc.posts[i]
		s.local[s.shardOf[ev.dst]].push(ev)
		s.nlocal++
	}
	sc.posts = sc.posts[:0]
	for i := range sc.sposts {
		s.deferred.push(sc.sposts[i])
	}
	sc.sposts = sc.sposts[:0]
	base := int(sc.shard) * s.shards
	for dst := 0; dst < s.shards; dst++ {
		box := s.mailboxes[base+dst]
		if len(box) == 0 {
			continue
		}
		for i := range box {
			s.local[dst].push(box[i])
			s.nlocal++
		}
		s.crossPosts += uint64(len(box))
		s.mailboxes[base+dst] = box[:0]
	}
}

// runWindow executes every conforming-parallel event with at < windowEnd,
// all shards concurrently, then drains the mailboxes at the barrier and runs
// the window's deferred barrier actions in canonical merge order. The workers
// are a persistent pool of pinned goroutines parked on per-shard wake
// channels between windows — spawned lazily at the first multi-shard window,
// woken with the window end, and counted back in through the done channel
// before the barrier proceeds, so a window costs zero goroutine churn and
// zero allocations in steady state. The pool is torn down by Shutdown (run
// completion, Engine.Reset, the MPI scheduler's shutdown paths); a cancelled
// run simply stops opening windows and the next Shutdown reaps the parked
// workers. A worker panic is captured in the worker's slot and re-raised
// here, lowest shard first, after every woken worker has parked again (the
// same deterministic failure order as the historical per-window goroutines);
// the pool is torn down before the panic unwinds so a crashed run leaks no
// goroutines either.
func (s *Sharded) runWindow(windowEnd Time) error {
	e := s.engine
	active := 0
	last := -1
	for i := range s.local {
		if h := &s.local[i]; len(h.ev) > 0 && h.ev[0].at < windowEnd {
			active++
			last = i
		}
	}
	s.windows++
	s.occupancySum += uint64(active)
	if s.prevWasWindow {
		s.batchedWindows++
	}
	s.prevWasWindow = true
	if active == 1 {
		// One busy shard: run inline, skip the wake/park round-trip.
		s.windowActive.Store(true)
		s.windowWorker(last, windowEnd)
		s.windowActive.Store(false)
		if p := s.workerPanic[last]; p != nil {
			s.workerPanic[last] = nil
			s.Shutdown()
			panic(p)
		}
		s.settleContext(&s.ctx[last])
		if err := s.closeWindow(e); err != nil {
			return err
		}
		return s.runBarrierActions(e)
	}
	s.parallelWindows++
	if !s.poolUp {
		s.startWorkers()
	}
	s.windowActive.Store(true)
	woken := 0
	for i := range s.local {
		h := &s.local[i]
		if len(h.ev) == 0 || h.ev[0].at >= windowEnd {
			continue
		}
		s.poolWake[i] <- windowEnd
		woken++
	}
	start := time.Now()
	for ; woken > 0; woken-- {
		<-s.poolDone
	}
	s.barrierWait += time.Since(start)
	s.windowActive.Store(false)
	for i := range s.workerPanic {
		if p := s.workerPanic[i]; p != nil {
			s.workerPanic[i] = nil
			// Every woken worker has parked again (the done loop above
			// collected them all), so the pool can be reaped before the panic
			// unwinds — a panicked run must not strand parked goroutines.
			s.Shutdown()
			panic(p)
		}
	}
	for i := range s.ctx {
		s.settleContext(&s.ctx[i])
	}
	if err := s.closeWindow(e); err != nil {
		return err
	}
	return s.runBarrierActions(e)
}

// startWorkers spawns the persistent worker pool: one goroutine per shard,
// parked on its wake channel. The wake channels are buffered (capacity 1) so
// the coordinator's wake loop never blocks; the channel send/receive pairs
// provide the happens-before edges between the coordinator's heap writes and
// the worker's reads (and back), which is the pool's entire memory-ordering
// story.
func (s *Sharded) startWorkers() {
	if s.poolWake == nil {
		s.poolWake = make([]chan Time, s.shards)
	}
	s.poolDone = make(chan int, s.shards)
	for i := 0; i < s.shards; i++ {
		wake := make(chan Time, 1)
		s.poolWake[i] = wake
		s.poolWG.Add(1)
		go func(shard int, wake <-chan Time) {
			defer s.poolWG.Done()
			for end := range wake {
				s.windowWorker(shard, end)
				s.poolDone <- shard
			}
		}(i, wake)
	}
	s.poolUp = true
}

// Shutdown tears down the persistent worker pool and waits for the workers
// to exit. It is idempotent and safe on a driver that never spawned workers.
// The drive loop calls it on natural run completion; Engine.Reset and the
// MPI scheduler's shutdown paths call it so an abandoned or reset run leaves
// no parked goroutines behind. Workers are only ever parked when Shutdown
// runs (the barrier collects every woken worker before runWindow returns,
// panics included), so closing the wake channels is race-free.
func (s *Sharded) Shutdown() {
	if !s.poolUp {
		return
	}
	s.poolUp = false
	for i := range s.poolWake {
		close(s.poolWake[i])
		s.poolWake[i] = nil
	}
	s.poolWG.Wait()
}

// runBarrierActions executes the window's deferred barrier actions (Defer)
// serially on the coordinator, k-way merged across shards by the canonical
// event key. Each shard's list is already key-sorted (its worker pops events
// in canonical order), and keys cannot collide across shards (the key embeds
// the destination group, and groups do not span shards), so the merge is a
// total order independent of shard count. Actions run with the engine clock
// already at the window maximum and the full serial-domain API available.
func (s *Sharded) runBarrierActions(e *Engine) error {
	n := 0
	for i := range s.ctx {
		s.actCursor[i] = 0
		n += len(s.ctx[i].dposts)
	}
	if n == 0 {
		return nil
	}
	for ; n > 0; n-- {
		best := -1
		var bestEv *shardEvent
		for i := range s.ctx {
			c := s.actCursor[i]
			if c >= len(s.ctx[i].dposts) {
				continue
			}
			head := &s.ctx[i].dposts[c]
			if bestEv == nil || eventLess(head, bestEv) {
				best, bestEv = i, head
			}
		}
		s.actCursor[best]++
		bestEv.h.HandleEvent(e, bestEv.a, bestEv.b)
	}
	for i := range s.ctx {
		s.ctx[i].dposts = s.ctx[i].dposts[:0]
	}
	return nil
}

// closeWindow folds the workers' execution tallies into the engine clock,
// the event counter and the pending-event count, and applies the event limit
// at the barrier.
func (s *Sharded) closeWindow(e *Engine) error {
	for i := range s.workerNexec {
		n := s.workerNexec[i]
		if n == 0 && s.workerPushed[i] == 0 {
			continue
		}
		e.nexec += n
		s.localExec += n
		if at := s.workerMaxAt[i]; at > e.now {
			e.now = at
		}
		s.nlocal += int(s.workerPushed[i]) - int(n)
		s.workerNexec[i], s.workerPushed[i] = 0, 0
	}
	if e.limit > 0 && e.nexec > e.limit {
		return fmt.Errorf("sim: event limit %d exceeded at t=%d", e.limit, e.now)
	}
	return nil
}

// windowWorker drains one shard's local heap up to windowEnd. It runs on the
// shard's pinned pool worker (or inline when the window has one active
// shard) and touches only shard-owned state: the shard's heap, its groups'
// sequence counters, its context, its mailbox row and its tally slots.
func (s *Sharded) windowWorker(shard int, windowEnd Time) {
	defer func() {
		if p := recover(); p != nil {
			s.workerPanic[shard] = p
		}
	}()
	h := &s.local[shard]
	sc := &s.ctx[shard]
	var maxAt Time
	var executed, pushed uint64
	for len(h.ev) > 0 && h.ev[0].at < windowEnd {
		ev := h.pop()
		sc.group, sc.now = ev.dst, ev.at
		sc.src, sc.seq = ev.src, ev.seq
		maxAt = ev.at
		executed++
		ev.lh.HandleLocalEvent(sc, ev.a, ev.b)
		// Same-shard posts feed straight back into the heap so the pop loop
		// sees ones that land inside this window; cross-shard posts sit in
		// the mailbox row until the barrier.
		pushed += uint64(len(sc.posts))
		for i := range sc.posts {
			h.push(sc.posts[i])
		}
		sc.posts = sc.posts[:0]
	}
	s.workerMaxAt[shard] = maxAt
	s.workerNexec[shard] = executed
	s.workerPushed[shard] = pushed
}

// --- per-shard 4-ary min-heap of shardEvents ------------------------------

type shardHeap struct {
	ev []shardEvent
}

// eventLess orders events by the canonical key: (at, class, seq) for the
// resident serial domain, (at, class, dst, src, seq) for local and
// deferred-serial events. The key never depends on shard count or window
// boundaries, which is what makes every drive mode and every Shards=N
// byte-identical.
func eventLess(a, b *shardEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.class != b.class {
		return a.class < b.class
	}
	if a.class != classResident {
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		if a.src != b.src {
			return a.src < b.src
		}
	}
	return a.seq < b.seq
}

func (h *shardHeap) less(a, b *shardEvent) bool { return eventLess(a, b) }

func (h *shardHeap) push(ev shardEvent) {
	h.ev = append(h.ev, ev)
	i := len(h.ev) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !h.less(&h.ev[i], &h.ev[p]) {
			break
		}
		h.ev[i], h.ev[p] = h.ev[p], h.ev[i]
		i = p
	}
}

func (h *shardHeap) pop() shardEvent {
	top := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev[n] = shardEvent{}
	h.ev = h.ev[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < min(first+4, n); c++ {
			if h.less(&h.ev[c], &h.ev[best]) {
				best = c
			}
		}
		if !h.less(&h.ev[best], &h.ev[i]) {
			break
		}
		h.ev[i], h.ev[best] = h.ev[best], h.ev[i]
		i = best
	}
	return top
}
