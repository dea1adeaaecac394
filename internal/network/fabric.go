package network

import (
	"fmt"
	"math/rand"

	"dragonfly/internal/counters"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// SendOptions control how one message is transferred.
type SendOptions struct {
	// Mode is the routing mode applied to every packet of the message.
	Mode routing.Mode
	// Verb is the RDMA operation used (Put by default).
	Verb Verb
	// Tag is an opaque value copied to the Delivery; the message layer uses it
	// for matching.
	Tag uint64
}

// Delivery describes the completion of one message transfer.
type Delivery struct {
	// Src and Dst are the endpoints of the transfer.
	Src, Dst topo.NodeID
	// Size is the message size in bytes.
	Size int64
	// Tag echoes SendOptions.Tag.
	Tag uint64
	// SendStart is when the message was posted at the source NIC.
	SendStart sim.Time
	// SenderDone is when the last request packet left the source NIC.
	SenderDone sim.Time
	// DeliveredAt is when the last request packet reached the destination NIC.
	DeliveredAt sim.Time
	// LastResponseAt is when the last response flit returned to the source NIC.
	LastResponseAt sim.Time
	// Counters holds the NIC counter deltas attributable to this message.
	Counters counters.NIC
}

// TransmissionCycles returns the paper's T_msg for this delivery: the time
// between the reception of the send by the source NIC and the delivery of the
// last flit to the destination NIC.
func (d Delivery) TransmissionCycles() int64 { return d.DeliveredAt - d.SendStart }

// sendOp is an in-flight message on a NIC's injection queue. Ops are recycled
// through the fabric's free-list (getOp/putOp), so steady-state message
// traffic allocates nothing per send.
type sendOp struct {
	src, dst topo.NodeID
	size     int64
	opts     SendOptions
	done     func(Delivery)

	packetsLeft  int64
	packetsTotal int64
	start        sim.Time
	senderDone   sim.Time
	deliveredAt  sim.Time
	lastResponse sim.Time
	delta        counters.NIC
}

// linkState is the dynamic state of one directed link. States live in one
// flat slice indexed by LinkID; the fields a packet hop touches (the timing
// words and the tile counters) sit together so a hop stays within one or two
// cache lines.
type linkState struct {
	// freeAt is the time the link finishes serializing the last accepted packet.
	freeAt sim.Time
	// prevFreeAt and lastChange implement the stale congestion view: until
	// CreditDelay cycles have elapsed since lastChange, the routing pipeline
	// still observes prevFreeAt.
	prevFreeAt sim.Time
	lastChange sim.Time

	cyclesPerFlitNum int64 // serialization = flits * num / den
	cyclesPerFlitDen int64
	propagation      int64
	bufferCycles     int64 // input buffer capacity expressed in cycles

	tile counters.Tile
}

func (ls *linkState) serialization(flits int) int64 {
	v := int64(flits) * ls.cyclesPerFlitNum
	v = (v + ls.cyclesPerFlitDen - 1) / ls.cyclesPerFlitDen
	return max(v, 1)
}

// queue is the link backlog the routing pipeline perceives at now: until
// creditDelay cycles have elapsed since lastChange it still sees prevFreeAt.
func (ls *linkState) queue(now, creditDelay int64) int64 {
	freeAt := ls.freeAt
	if now-ls.lastChange < creditDelay {
		freeAt = ls.prevFreeAt
	}
	return max(freeAt-now, 0)
}

func (ls *linkState) advance(now, newFreeAt sim.Time) {
	ls.prevFreeAt = ls.freeAt
	ls.lastChange = now
	ls.freeAt = newFreeAt
}

// reset rewinds the dynamic fields (timing view, counters) while keeping the
// topology-derived constants.
func (ls *linkState) reset() {
	ls.freeAt, ls.prevFreeAt, ls.lastChange = 0, 0, 0
	ls.tile = counters.Tile{}
}

// nicState is the dynamic state of one NIC. Like linkState, NICs live in one
// flat slice indexed by NodeID.
type nicState struct {
	counters counters.NIC

	// readyAt is when the NIC can start injecting the next packet.
	readyAt sim.Time
	// window is a ring buffer of the response times of the last
	// MaxOutstandingPackets packets, used to enforce the outstanding limit.
	// A NIC takes one on its first injection and returns it at Reset: at
	// machine scale most nodes never send (only the measured jobs and noise
	// generators do), so an idle NIC costs a few words instead of an eager
	// MaxOutstandingPackets-sized ring.
	window    []sim.Time
	windowIdx int
	windowLen int

	// queue[qhead:] are the pending ops, oldest first. A head index (rather
	// than re-slicing) keeps the backing array stable so the queue reaches a
	// steady state with no per-message growth.
	queue     []*sendOp
	qhead     int
	injecting bool
}

// headOp returns the oldest pending op without removing it.
func (n *nicState) headOp() *sendOp { return n.queue[n.qhead] }

// queueLen reports the number of pending ops.
func (n *nicState) queueLen() int { return len(n.queue) - n.qhead }

// pushOp appends an op, compacting the consumed prefix when it dominates the
// backing array. (popOp resets qhead to 0 whenever the queue drains, so
// qhead < len(queue) or both are zero here.)
func (n *nicState) pushOp(op *sendOp) {
	if n.qhead > 32 && n.qhead*2 >= len(n.queue) {
		m := copy(n.queue, n.queue[n.qhead:])
		n.queue = n.queue[:m]
		n.qhead = 0
	}
	n.queue = append(n.queue, op)
}

// popOp removes and returns the oldest pending op.
func (n *nicState) popOp() *sendOp {
	op := n.queue[n.qhead]
	n.queue[n.qhead] = nil
	n.qhead++
	if n.qhead == len(n.queue) {
		n.queue = n.queue[:0]
		n.qhead = 0
	}
	return op
}

// reset rewinds the dynamic state of a NIC, returning still-queued ops to the
// pool and the outstanding-packet ring to the fabric's free list. Rings thus
// stay bounded by the most NICs that have injected in one epoch, not by every
// node a sweep of trials has touched. A recycled ring is not cleared:
// windowConstraint reads it only once windowLen shows that this epoch has
// overwritten every slot.
func (n *nicState) reset(f *Fabric) {
	n.counters = counters.NIC{}
	n.readyAt = 0
	if n.window != nil {
		f.ringFree = append(f.ringFree, n.window)
		n.window = nil
	}
	n.windowIdx, n.windowLen = 0, 0
	for i := n.qhead; i < len(n.queue); i++ {
		f.putOp(n.queue[i])
		n.queue[i] = nil
	}
	n.queue = n.queue[:0]
	n.qhead = 0
	n.injecting = false
}

// pendingDelivery is a completed transfer waiting for its delivery event to
// fire; slots are pooled like sendOps.
type pendingDelivery struct {
	d    Delivery
	done func(Delivery)
}

// Typed-event opcodes dispatched through Fabric.HandleEvent.
const (
	fabricOpInject int64 = iota
	fabricOpDeliver
)

// Fabric simulates the Dragonfly interconnect. It is not safe for concurrent
// use; all access must happen from the simulation goroutine (event callbacks).
type Fabric struct {
	engine *sim.Engine
	topo   *topo.Topology
	policy *routing.Policy
	cfg    Config

	links []linkState
	nics  []nicState
	rng   *rand.Rand

	// opFree and pending/pendingFree pool the per-message bookkeeping so the
	// steady-state send path performs no allocation.
	opFree      []*sendOp
	pending     []pendingDelivery
	pendingFree []int32

	// ringFree holds the outstanding-packet rings NICs returned at Reset,
	// for later first injections to reuse.
	ringFree [][]sim.Time

	packetsInjected uint64

	// sharded, when non-nil, is the intra-run parallel driver packet events
	// are filed under (see shard.go); groupOfNode caches each node's group
	// so the hot-path residency decision is one slice load.
	sharded     *sim.Sharded
	groupOfNode []int32

	// observers are the delivery observers in registration order. Multiple
	// observers coexist — per-job delivery capture, the message log and
	// telemetry can all watch one concurrent run — so the slot is a dispatch
	// list, not a single callback.
	observers []deliveryObserver
	// nextObserverID is monotonically increasing and deliberately NOT rewound
	// by Reset, so an ObserverID from a previous epoch can never alias a new
	// observer.
	nextObserverID ObserverID
}

// ObserverID identifies a registered delivery observer. The zero value never
// identifies an observer.
type ObserverID int64

// deliveryObserver is one registered delivery callback.
type deliveryObserver struct {
	id ObserverID
	fn func(Delivery)
}

// New builds a fabric over the given topology, routing policy and engine.
func New(engine *sim.Engine, t *topo.Topology, policy *routing.Policy, cfg Config) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{
		engine: engine,
		topo:   t,
		policy: policy,
		cfg:    cfg,
		links:  make([]linkState, t.NumLinks()),
		nics:   make([]nicState, t.NumNodes()),
		rng:    rand.New(rand.NewSource(engine.Seed() ^ 0x5f3759df)),
	}
	for i, l := range t.Links() {
		ls := &f.links[i]
		ls.cyclesPerFlitNum = cfg.CyclesPerFlit
		ls.cyclesPerFlitDen = max(int64(l.Width), 1)
		ls.propagation = cfg.propagationFor(l.Type)
		ls.bufferCycles = ls.serialization(cfg.BufferFlits)
	}
	return f, nil
}

// MustNew is like New but panics on configuration errors.
func MustNew(engine *sim.Engine, t *topo.Topology, policy *routing.Policy, cfg Config) *Fabric {
	f, err := New(engine, t, policy, cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Reset rewinds the fabric to the state New would produce over the already
// reset engine: link timing views, NIC counters and windows, injection
// queues, the packet counter, the delivery observer and the private random
// stream (reseeded from the engine's current seed). Topology-derived
// constants (serialization rates, propagation, buffer depths) are kept, which
// is the point: resetting is O(state) instead of O(topology construction).
// Reset must be called after the engine's own Reset so no stale packet events
// remain scheduled.
func (f *Fabric) Reset() {
	for i := range f.links {
		f.links[i].reset()
	}
	for i := range f.nics {
		f.nics[i].reset(f)
	}
	for i := range f.pending {
		f.pending[i] = pendingDelivery{}
	}
	f.pending = f.pending[:0]
	f.pendingFree = f.pendingFree[:0]
	f.packetsInjected = 0
	for i := range f.observers {
		f.observers[i] = deliveryObserver{}
	}
	f.observers = f.observers[:0]
	f.rng.Seed(f.engine.Seed() ^ 0x5f3759df)
}

// Engine returns the simulation engine driving the fabric.
func (f *Fabric) Engine() *sim.Engine { return f.engine }

// Topology returns the topology the fabric runs on.
func (f *Fabric) Topology() *topo.Topology { return f.topo }

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Policy returns the routing policy.
func (f *Fabric) Policy() *routing.Policy { return f.policy }

// PacketsInjected reports the total number of request packets injected so far.
func (f *Fabric) PacketsInjected() uint64 { return f.packetsInjected }

// AddDeliveryObserver registers a callback invoked for every completed
// message transfer on the fabric (including same-node loopback transfers and
// traffic from background generators), at the delivery's simulated time.
// Observers fire in registration order; any number may coexist, so per-job
// delivery capture, the message log and telemetry can all watch one
// concurrent run. The returned id removes the observer again. Observers must
// not be added or removed from within an observer callback.
func (f *Fabric) AddDeliveryObserver(fn func(Delivery)) ObserverID {
	f.nextObserverID++
	id := f.nextObserverID
	f.observers = append(f.observers, deliveryObserver{id: id, fn: fn})
	return id
}

// RemoveDeliveryObserver unregisters a delivery observer and reports whether
// it was registered. Removing an already removed (or never issued) id is a
// safe no-op, even after a Reset recycled the fabric.
func (f *Fabric) RemoveDeliveryObserver(id ObserverID) bool {
	for i := range f.observers {
		if f.observers[i].id == id {
			f.observers = append(f.observers[:i], f.observers[i+1:]...)
			return true
		}
	}
	return false
}

// NodeCounters returns the cumulative NIC counters of a node.
func (f *Fabric) NodeCounters(n topo.NodeID) counters.NIC {
	return f.nics[n].counters
}

// TileCounters returns the cumulative tile counters of a link.
func (f *Fabric) TileCounters(id topo.LinkID) counters.Tile {
	return f.links[id].tile
}

// IncomingFlits sums the flits forwarded by all links terminating at any of
// the given routers. It reproduces the "incoming flits" observation an
// application makes from its allocated routers' tile counters (Table 1).
func (f *Fabric) IncomingFlits(routers map[topo.RouterID]bool) (flits, stalled uint64) {
	for _, l := range f.topo.Links() {
		if routers[l.Dst] {
			flits += f.links[l.ID].tile.FlitsTraversed
			stalled += f.links[l.ID].tile.StalledCycles
		}
	}
	return flits, stalled
}

// --- routing.CongestionView implementation -------------------------------

// LinkCost implements routing.CongestionView from one linkState read: the
// stale (credit-delayed) backlog plus propagation plus serialization.
func (f *Fabric) LinkCost(id topo.LinkID, flits int, now int64) int64 {
	ls := &f.links[id]
	return ls.queue(now, f.cfg.CreditDelay) + ls.propagation + ls.serialization(flits)
}

var _ routing.CongestionView = (*Fabric)(nil)

// --- typed engine events ---------------------------------------------------

// HandleEvent implements sim.Handler: packet progression (NIC injection) and
// delivery completion are driven by typed events instead of per-event
// closures, so the steady-state hot path of the simulation allocates nothing.
func (f *Fabric) HandleEvent(_ *sim.Engine, op, arg int64) {
	switch op {
	case fabricOpInject:
		f.inject(topo.NodeID(arg))
	case fabricOpDeliver:
		f.completeDelivery(int32(arg))
	}
}

// scheduleInject arms the NIC injection event for node src at time at. On a
// sharded fabric the event is filed under the source node's group — the
// shard that owns the NIC — with its global sequence number intact, so the
// handoff changes where the event is parked, never when it runs.
func (f *Fabric) scheduleInject(at sim.Time, src topo.NodeID) {
	if f.sharded != nil {
		f.sharded.ScheduleResident(f.groupOfNode[src], at, f, fabricOpInject, int64(src))
		return
	}
	f.engine.ScheduleCall(at, f, fabricOpInject, int64(src))
}

// scheduleDelivery parks (d, done) in a pooled pending slot and schedules the
// typed completion event at d.DeliveredAt.
func (f *Fabric) scheduleDelivery(d Delivery, done func(Delivery)) {
	var idx int32
	if n := len(f.pendingFree); n > 0 {
		idx = f.pendingFree[n-1]
		f.pendingFree = f.pendingFree[:n-1]
	} else {
		f.pending = append(f.pending, pendingDelivery{})
		idx = int32(len(f.pending) - 1)
	}
	f.pending[idx] = pendingDelivery{d: d, done: done}
	if f.sharded != nil {
		// Delivery completes at the destination NIC: file it under the
		// destination group. A cross-group message scheduled while another
		// shard's inject executes rides the engine's SPSC mailboxes.
		f.sharded.ScheduleResident(f.groupOfNode[d.Dst], d.DeliveredAt, f, fabricOpDeliver, int64(idx))
		return
	}
	f.engine.ScheduleCall(d.DeliveredAt, f, fabricOpDeliver, int64(idx))
}

// completeDelivery fires the observer and the sender's done callback for one
// pending delivery, releasing its slot first so callbacks can immediately
// schedule new transfers.
func (f *Fabric) completeDelivery(idx int32) {
	pd := f.pending[idx]
	f.pending[idx] = pendingDelivery{}
	f.pendingFree = append(f.pendingFree, idx)
	for i := range f.observers {
		f.observers[i].fn(pd.d)
	}
	if pd.done != nil {
		pd.done(pd.d)
	}
}

// getOp takes a send op from the pool (or allocates the pool's next one).
func (f *Fabric) getOp() *sendOp {
	if n := len(f.opFree); n > 0 {
		op := f.opFree[n-1]
		f.opFree = f.opFree[:n-1]
		return op
	}
	return &sendOp{}
}

// putOp recycles a finished op.
func (f *Fabric) putOp(op *sendOp) {
	*op = sendOp{}
	f.opFree = append(f.opFree, op)
}

// --- message transfer ------------------------------------------------------

// Send posts a message transfer from src to dst. The done callback (optional)
// is invoked, in simulated time, when the last request packet has been
// delivered to the destination NIC. Send must be called from the simulation
// goroutine (i.e. inside an event or before Run).
func (f *Fabric) Send(src, dst topo.NodeID, size int64, opts SendOptions, done func(Delivery)) error {
	if int(src) < 0 || int(src) >= len(f.nics) || int(dst) < 0 || int(dst) >= len(f.nics) {
		return fmt.Errorf("network: invalid endpoints %d -> %d", src, dst)
	}
	if size < 0 {
		return fmt.Errorf("network: negative message size %d", size)
	}
	now := f.engine.Now()
	if src == dst {
		// On-node transfer: no NIC involvement, modelled as a memory copy.
		delay := f.cfg.LoopbackBaseCycles + int64(float64(size)*f.cfg.LoopbackCyclesPerByte)
		d := Delivery{
			Src: src, Dst: dst, Size: size, Tag: opts.Tag,
			SendStart: now, SenderDone: now + delay, DeliveredAt: now + delay,
			LastResponseAt: now + delay,
		}
		if done != nil || len(f.observers) > 0 {
			f.scheduleDelivery(d, done)
		}
		return nil
	}
	op := f.getOp()
	op.src, op.dst, op.size, op.opts, op.done = src, dst, size, opts, done
	op.packetsTotal = f.cfg.PacketsForSize(size)
	op.start = now
	op.packetsLeft = op.packetsTotal
	nic := &f.nics[src]
	nic.pushOp(op)
	if !nic.injecting {
		nic.injecting = true
		nic.readyAt = max(nic.readyAt, now)
		f.scheduleInject(nic.readyAt, src)
	}
	return nil
}

// windowConstraint returns the earliest time the NIC may inject the next
// packet given the outstanding-packet window of maxOutstanding packets.
func (n *nicState) windowConstraint(maxOutstanding int) sim.Time {
	if n.windowLen < maxOutstanding {
		return 0
	}
	// The oldest outstanding packet's response bounds the next injection.
	return n.window[n.windowIdx]
}

// recordResponse enters a packet's response time into the outstanding
// window. On the NIC's first injection of an epoch it takes a ring from
// free, or allocates one when the list is empty.
func (n *nicState) recordResponse(resp sim.Time, maxOutstanding int, free *[][]sim.Time) {
	if n.window == nil {
		if k := len(*free); k > 0 {
			n.window = (*free)[k-1]
			*free = (*free)[:k-1]
		} else {
			n.window = make([]sim.Time, maxOutstanding)
		}
	}
	n.window[n.windowIdx] = resp
	n.windowIdx = (n.windowIdx + 1) % len(n.window)
	if n.windowLen < len(n.window) {
		n.windowLen++
	}
}

// inject processes one chunk of packets from the head of the NIC's queue and
// reschedules itself until the queue drains.
func (f *Fabric) inject(src topo.NodeID) {
	nic := &f.nics[src]
	if nic.queueLen() == 0 {
		nic.injecting = false
		return
	}
	op := nic.headOp()
	now := f.engine.Now()
	nic.readyAt = max(nic.readyAt, now)

	chunkPackets := min(int64(f.cfg.PacketsPerChunk), op.packetsLeft)
	flitsPerPacket := f.cfg.RequestFlitsPerPacket(op.opts.Verb)
	chunkFlits := int(chunkPackets) * flitsPerPacket

	// Window constraint: the oldest outstanding packet must have been
	// acknowledged before a new one can enter the request window.
	ready := max(nic.readyAt, nic.windowConstraint(f.cfg.MaxOutstandingPackets))

	srcRouter := f.topo.RouterOfNode(op.src)
	dstRouter := f.topo.RouterOfNode(op.dst)

	// Per-packet (per-chunk) adaptive routing decision.
	hash := uint64(op.src)<<40 ^ uint64(op.dst)<<16 ^ f.packetsInjected
	dec := f.policy.Route(op.opts.Mode, srcRouter, dstRouter, flitsPerPacket, hash, f, ready, f.rng)

	// Traverse the selected path, accumulating per-link waits.
	injStart := ready
	var arrival sim.Time
	if len(dec.Path) == 0 {
		// Same router: deliver through the processor tiles only.
		arrival = injStart + int64(chunkFlits)*f.cfg.CyclesPerFlit + 2*f.cfg.ProcessorDelay
	} else {
		first := &f.links[dec.Path[0]]
		injStart = max(ready, first.freeAt)
		// Credit back-pressure from the second hop propagates to the NIC when
		// the downstream buffer cannot absorb the packet.
		if len(dec.Path) > 1 {
			second := &f.links[dec.Path[1]]
			injStart = max(injStart, second.freeAt-second.bufferCycles)
		}
		t := injStart
		for i, id := range dec.Path {
			ls := &f.links[id]
			start := max(t, ls.freeAt)
			if i+1 < len(dec.Path) {
				next := &f.links[dec.Path[i+1]]
				start = max(start, next.freeAt-next.bufferCycles)
			}
			ser := ls.serialization(chunkFlits)
			ls.tile.FlitsTraversed += uint64(chunkFlits)
			ls.tile.BusyCycles += uint64(ser)
			if wait := start - t; wait > 0 {
				ls.tile.StalledCycles += uint64(wait)
			}
			ls.advance(start, start+ser)
			t = start + ser + ls.propagation
		}
		arrival = t + 2*f.cfg.ProcessorDelay
	}

	// Response traversal over the reverse path.
	respFlits := f.cfg.ResponseFlits * int(chunkPackets)
	respArrival := arrival
	for i := len(dec.Path) - 1; i >= 0; i-- {
		revID := f.topo.ReverseLink(dec.Path[i])
		if revID == topo.InvalidLink {
			continue
		}
		ls := &f.links[revID]
		start := max(respArrival, ls.freeAt)
		ser := ls.serialization(respFlits)
		ls.tile.FlitsTraversed += uint64(respFlits)
		ls.tile.BusyCycles += uint64(ser)
		ls.advance(start, start+ser)
		respArrival = start + ser + ls.propagation
	}
	respArrival += f.cfg.ProcessorDelay

	// NIC accounting for this chunk.
	stall := injStart - ready
	serNIC := int64(chunkFlits) * f.cfg.CyclesPerFlit // NIC pushes one flit per CyclesPerFlit
	nic.readyAt = injStart + serNIC
	nic.recordResponse(respArrival, f.cfg.MaxOutstandingPackets, &f.ringFree)
	f.packetsInjected += uint64(chunkPackets)

	latency := respArrival - injStart
	delta := counters.NIC{
		RequestFlits:              uint64(chunkFlits),
		RequestFlitsStalledCycles: uint64(stall),
		RequestPackets:            uint64(chunkPackets),
		RequestPacketsCumLatency:  uint64(latency) * uint64(chunkPackets),
	}
	if dec.Minimal {
		delta.MinimalPackets = uint64(chunkPackets)
	} else {
		delta.NonMinimalPackets = uint64(chunkPackets)
	}
	nic.counters.Add(delta)
	op.delta.Add(delta)

	op.packetsLeft -= chunkPackets
	op.deliveredAt = max(op.deliveredAt, arrival)
	op.lastResponse = max(op.lastResponse, respArrival)

	if op.packetsLeft <= 0 {
		op.senderDone = nic.readyAt
		nic.popOp()
		d := Delivery{
			Src: op.src, Dst: op.dst, Size: op.size, Tag: op.opts.Tag,
			SendStart: op.start, SenderDone: op.senderDone,
			DeliveredAt: op.deliveredAt, LastResponseAt: op.lastResponse,
			Counters: op.delta,
		}
		done := op.done
		f.putOp(op)
		if done != nil || len(f.observers) > 0 {
			f.scheduleDelivery(d, done)
		}
	}

	if nic.queueLen() == 0 {
		nic.injecting = false
		return
	}
	f.scheduleInject(nic.readyAt, src)
}
