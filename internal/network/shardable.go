package network

import (
	"fmt"

	"dragonfly/internal/counters"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// This file is the ShardableUGAL packet path: the per-group partition of the
// fabric's mutable routing state that turns packet injection into a
// conforming-parallel event (sim.LocalHandler) instead of a resident-serial
// one.
//
// ExactUGAL (the default, inject in fabric.go) is order-serial because the
// paper's algorithm couples every packet to machine-global state: one shared
// RNG stream and an instantaneous global congestion view. ShardableUGAL cuts
// exactly those two couplings:
//
//   - RNG: one deterministic stream per group, seeded from (baseSeed, group)
//     (routing.ShardedPolicy). The draw order within a group equals its
//     canonical event order, so the stream never depends on shard count.
//
//   - Congestion: each group routes against its own replica of every link's
//     effective freeAt. Links whose source router the group owns ("own
//     links") are read and advanced authoritatively, exactly like the exact
//     path — only this group's window can touch them, so there is no race
//     and no staleness. Remote links are read from the group's replica and
//     advanced locally, with the delta recorded in a per-link outbox entry.
//
//   - Sync: a serial-domain engine event fires at every sync boundary
//     T_k = k*K*L while traffic is in flight, where L is the lookahead and
//     K is the replica-staleness knob (WithReplicaStaleness; K=1 by
//     default, arithmetic-identical to the historical per-lookahead sync).
//     Horizon windows are always clipped at the earliest pending serial
//     event, so the sync deterministically observes *exactly* the packet
//     events with at < T_k, at every shard count. It folds each group's
//     outbox deltas into the authoritative links (additively — concurrent
//     load from several groups stacks, modelling contention), refreshes
//     every group's replica for each touched link, and re-arms itself while
//     any lane saw new packets or still has ops queued. Replica staleness
//     is therefore bounded by K lookahead windows (K·L = K·500 cycles under
//     DefaultConfig; at K=1 that is comparable to the 600-cycle CreditDelay
//     the exact view already carries, which is why the relaxation is
//     arguably closer to real Aries delayed-credit telemetry than the
//     instantaneous global view). Larger K trades congestion-view freshness
//     for fewer serial sync events — each K is its own deterministic model
//     with its own golden family, and the `fidelity` experiment measures
//     the trade.
//
// Delivery completions execute as conforming-parallel events of the source
// group at DeliveredAt; the in-window half only unparks the lane arena slot,
// and the callbacks that need the serial-domain API (rank wakeups,
// observers) are deferred to the window barrier through the canonical merge
// (ShardContext.Defer), keyed shard-count-independently.
//
// The determinism contract of the variant: output is a pure function of
// (variant, staleness, seed, geometry, workload, drive schedule). It differs
// from ExactUGAL by construction, but is byte-identical across shard counts
// {1,2,4,8} and across Run/Step drive — pinned by its own golden family.

// laneState is one group's mutable packet-path state. A lane is written by
// exactly one party at a time: the group's window worker during windows, the
// serial domain (Send, sync, delivery completion) between them.
type laneState struct {
	// opFree / pend / pendFree mirror the fabric-global pools so concurrent
	// windows never contend on op recycling or delivery parking.
	opFree   []*sendOp
	pend     []pendingDelivery
	pendFree []int32

	// packets is the lane's injected-packet counter: the per-group hash input
	// (replacing the global packetsInjected) and, via lastPackets, the sync
	// chain's activity signal. opsQueued counts sendOps posted to the lane's
	// NICs but not yet fully injected; it keeps the sync chain alive across
	// epochs where the outstanding-packet window stalls all injection.
	packets     uint64
	lastPackets uint64
	opsQueued   int64

	// replica[l] is the lane's view of link l's freeAt: authoritative as of
	// the last sync, advanced locally for remote links the lane's own packets
	// traversed since. Own links bypass it entirely.
	replica []sim.Time

	// outbox accumulates this epoch's deltas to remote links; outIdx/outStamp
	// give O(1) per-link entry lookup (outStamp[l] == syncEpoch+1 marks a
	// live index).
	outIdx   []int32
	outStamp []uint32
	outbox   []outEntry

	// dirtyOwn lists own links advanced since the last sync, so the sync
	// refreshes other lanes' replicas without scanning every link.
	dirtyOwn []topo.LinkID

	// view is the lane's preallocated routing.CongestionView (pointer, so
	// passing it to Route never allocates).
	view *laneView
}

// outEntry is one epoch's accumulated delta to one remote link.
type outEntry struct {
	id      topo.LinkID
	ser     int64 // serialization cycles this lane added to the link
	flits   uint64
	busy    uint64
	stalled uint64
}

// outEntry returns the lane's live outbox entry for link id, creating it on
// first touch this epoch.
func (lane *laneState) outEntry(id topo.LinkID, epoch uint32) *outEntry {
	if lane.outStamp[id] == epoch+1 {
		return &lane.outbox[lane.outIdx[id]]
	}
	lane.outStamp[id] = epoch + 1
	lane.outIdx[id] = int32(len(lane.outbox))
	lane.outbox = append(lane.outbox, outEntry{id: id})
	return &lane.outbox[len(lane.outbox)-1]
}

// getOp / putOp are the lane-local send-op pool.
func (lane *laneState) getOp() *sendOp {
	if n := len(lane.opFree); n > 0 {
		op := lane.opFree[n-1]
		lane.opFree = lane.opFree[:n-1]
		return op
	}
	return &sendOp{}
}

func (lane *laneState) putOp(op *sendOp) {
	*op = sendOp{}
	lane.opFree = append(lane.opFree, op)
}

// park stores a completed delivery in the lane arena and returns its index.
func (lane *laneState) park(d Delivery, done func(Delivery)) int32 {
	var idx int32
	if n := len(lane.pendFree); n > 0 {
		idx = lane.pendFree[n-1]
		lane.pendFree = lane.pendFree[:n-1]
	} else {
		lane.pend = append(lane.pend, pendingDelivery{})
		idx = int32(len(lane.pend) - 1)
	}
	lane.pend[idx] = pendingDelivery{d: d, done: done}
	return idx
}

// laneView is a lane's routing.CongestionView: authoritative (credit-delayed)
// for own links, replica-based for remote ones.
type laneView struct {
	f     *Fabric
	lane  *laneState
	group int32
}

func (v *laneView) LinkCost(id topo.LinkID, flits int, now int64) int64 {
	ls := &v.f.links[id]
	var queue int64
	if v.f.groupOfLink[id] == v.group {
		queue = ls.queue(now, v.f.cfg.CreditDelay)
	} else {
		queue = max(v.lane.replica[id]-now, 0)
	}
	return queue + ls.propagation + ls.serialization(flits)
}

var _ routing.CongestionView = (*laneView)(nil)

// EnableShardable switches the fabric's packet path to the ShardableUGAL
// variant: per-group routing lanes over sp, packet inject events in the
// sharded engine's conforming-parallel class, and the sync chain that
// refreshes congestion replicas every staleness × lookahead cycles
// (staleness 1 is the classic per-boundary sync). AttachSharding must have
// been called first; the topology needs at least two groups (a connected
// single group has no global links and so no lookahead). The replica arenas
// are allocated here, once — the window hot path and the sync never allocate
// in steady state.
func (f *Fabric) EnableShardable(sp *routing.ShardedPolicy, staleness int) error {
	if f.sharded == nil {
		return fmt.Errorf("network: EnableShardable requires AttachSharding first")
	}
	if sp == nil {
		return fmt.Errorf("network: EnableShardable needs a sharded policy")
	}
	if staleness < 1 {
		return fmt.Errorf("network: replica staleness must be >= 1, got %d", staleness)
	}
	groups := f.sharded.Groups()
	if sp.Groups() != groups {
		return fmt.Errorf("network: sharded policy has %d lanes, topology has %d groups", sp.Groups(), groups)
	}
	lookahead := f.LookaheadCycles()
	if lookahead <= 0 {
		return fmt.Errorf("network: ShardableUGAL needs a multi-group geometry (no global links, no lookahead)")
	}
	nl := f.topo.NumLinks()
	if f.groupOfLink == nil {
		f.groupOfLink = make([]int32, nl)
		for _, l := range f.topo.Links() {
			f.groupOfLink[l.ID] = int32(f.topo.GroupOf(l.Src))
		}
	}
	f.spolicy = sp
	f.lookahead = lookahead
	f.staleness = staleness
	f.syncPeriod = lookahead * sim.Time(staleness)
	f.ownStamp = make([]uint32, nl)
	f.lanes = make([]laneState, groups)
	for g := range f.lanes {
		lane := &f.lanes[g]
		lane.replica = make([]sim.Time, nl)
		lane.outIdx = make([]int32, nl)
		lane.outStamp = make([]uint32, nl)
		lane.view = &laneView{f: f, lane: lane, group: int32(g)}
	}
	return nil
}

// Variant reports which UGAL variant the fabric's packet path runs.
func (f *Fabric) Variant() routing.Variant {
	if f.spolicy != nil {
		return routing.ShardableUGAL
	}
	return routing.ExactUGAL
}

// ShardedPolicy returns the per-group routing state, or nil under ExactUGAL.
func (f *Fabric) ShardedPolicy() *routing.ShardedPolicy { return f.spolicy }

// ShardableActive reports whether the shardable packet path is enabled —
// the routing-free way for callers (the MPI layer) to pick the promoted,
// conforming-parallel scheduling path for their own events.
func (f *Fabric) ShardableActive() bool { return f.spolicy != nil }

// ReplicaStaleness returns the replica-sync decimation factor K (sync period
// = K × lookahead). It returns 1 on a fabric running ExactUGAL, where the
// knob has no effect.
func (f *Fabric) ReplicaStaleness() int {
	if f.staleness < 1 {
		return 1
	}
	return f.staleness
}

// resetShardable rewinds the variant state; Fabric.Reset calls it after the
// lanes' structural arenas already exist, so it is O(state), no allocation.
func (f *Fabric) resetShardable() {
	for i := range f.ownStamp {
		f.ownStamp[i] = 0
	}
	f.syncEpoch = 0
	f.syncArmed = false
	for g := range f.lanes {
		lane := &f.lanes[g]
		for i := range lane.replica {
			lane.replica[i] = 0
		}
		for i := range lane.outStamp {
			lane.outStamp[i] = 0
		}
		lane.outbox = lane.outbox[:0]
		lane.dirtyOwn = lane.dirtyOwn[:0]
		lane.packets, lane.lastPackets, lane.opsQueued = 0, 0, 0
		for i := range lane.pend {
			lane.pend[i] = pendingDelivery{}
		}
		lane.pend = lane.pend[:0]
		lane.pendFree = lane.pendFree[:0]
	}
	f.spolicy.Reset(f.engine.Seed())
}

// armSync starts the sync chain at the next sync boundary (a multiple of
// syncPeriod = staleness × lookahead) if it is not already running. Called
// from Send (serial domain), so no window can span the armed boundary:
// subsequent windows see the pending sync event and clip at it.
func (f *Fabric) armSync(now sim.Time) {
	if f.syncArmed {
		return
	}
	f.syncArmed = true
	next := (now/f.syncPeriod + 1) * f.syncPeriod
	f.engine.ScheduleCall(next, f, fabricOpSync, 0)
}

// runSync is the sync-boundary replica synchronization (serial domain).
// Window clipping guarantees every packet event with at < Now() has executed
// and none with at >= Now() has, at every shard count — so the fold below is
// deterministic and shard-count independent.
func (f *Fabric) runSync() {
	at := f.engine.Now()
	prev := at - f.syncPeriod
	// Fold each lane's remote-link deltas into the authoritative links, in
	// lane order. Timing folds additively: the lane's serialization cycles
	// extend the link's busy horizon from max(freeAt, previous boundary), so
	// concurrent load from several groups stacks like real contention.
	for g := range f.lanes {
		lane := &f.lanes[g]
		for i := range lane.outbox {
			e := &lane.outbox[i]
			ls := &f.links[e.id]
			ls.tile.FlitsTraversed += e.flits
			ls.tile.BusyCycles += e.busy
			ls.tile.StalledCycles += e.stalled
			ls.advance(at, max(ls.freeAt, prev)+e.ser)
		}
	}
	// Refresh every lane's replica for each link touched this epoch (remote
	// outbox targets and own-link advances alike).
	for g := range f.lanes {
		lane := &f.lanes[g]
		for i := range lane.outbox {
			f.refreshReplicas(lane.outbox[i].id)
		}
		for _, id := range lane.dirtyOwn {
			f.refreshReplicas(id)
		}
	}
	// Clear epoch state and decide whether the chain stays alive.
	activity := false
	var queued int64
	for g := range f.lanes {
		lane := &f.lanes[g]
		lane.outbox = lane.outbox[:0]
		lane.dirtyOwn = lane.dirtyOwn[:0]
		if lane.packets != lane.lastPackets {
			lane.lastPackets = lane.packets
			activity = true
		}
		queued += lane.opsQueued
	}
	f.syncEpoch++
	if activity || queued > 0 {
		f.engine.ScheduleCall(at+f.syncPeriod, f, fabricOpSync, 0)
	} else {
		f.syncArmed = false
	}
}

// refreshReplicas publishes link id's authoritative freeAt to every lane.
func (f *Fabric) refreshReplicas(id topo.LinkID) {
	freeAt := f.links[id].freeAt
	for g := range f.lanes {
		f.lanes[g].replica[id] = freeAt
	}
}

// markOwnDirty records that an own link advanced this epoch (single writer:
// the owning group's window).
func (f *Fabric) markOwnDirty(lane *laneState, id topo.LinkID) {
	if f.ownStamp[id] != f.syncEpoch+1 {
		f.ownStamp[id] = f.syncEpoch + 1
		lane.dirtyOwn = append(lane.dirtyOwn, id)
	}
}

// laneFreeAt is the lane's effective freeAt for a link: authoritative for
// own links, replica for remote ones.
func (f *Fabric) laneFreeAt(lane *laneState, g int32, id topo.LinkID) sim.Time {
	if f.groupOfLink[id] == g {
		return f.links[id].freeAt
	}
	return lane.replica[id]
}

// laneAdvance applies one hop's occupancy: authoritative advance + dirty
// marking for own links, replica advance + outbox delta for remote ones.
func (f *Fabric) laneAdvance(lane *laneState, g int32, id topo.LinkID, start sim.Time, ser int64, flits uint64, wait int64) {
	if f.groupOfLink[id] == g {
		ls := &f.links[id]
		ls.tile.FlitsTraversed += flits
		ls.tile.BusyCycles += uint64(ser)
		if wait > 0 {
			ls.tile.StalledCycles += uint64(wait)
		}
		ls.advance(start, start+ser)
		f.markOwnDirty(lane, id)
		return
	}
	lane.replica[id] = start + ser
	e := lane.outEntry(id, f.syncEpoch)
	e.ser += ser
	e.flits += flits
	e.busy += uint64(ser)
	if wait > 0 {
		e.stalled += uint64(wait)
	}
}

// HandleLocalEvent implements sim.LocalHandler: under ShardableUGAL, packet
// injection and delivery completion are conforming-parallel events executed
// by the window worker of the source node's group. A completion touches no
// state in-window — its callbacks (rank wakeups, observers) need the
// serial-domain API, so it defers itself to the window barrier, where the
// canonical merge runs it in shard-count-independent order.
func (f *Fabric) HandleLocalEvent(sc *sim.ShardContext, op, arg int64) {
	switch op {
	case fabricOpInject:
		f.injectLane(sc, topo.NodeID(arg))
	case fabricOpDeliverLane:
		sc.Defer(f, fabricOpDeliverLane, arg)
	}
}

var _ sim.LocalHandler = (*Fabric)(nil)

// injectLane is inject's ShardableUGAL twin: identical packet mechanics, but
// all mutable state it touches is lane-partitioned — the group's RNG/policy
// lane, its link replicas and outboxes, its op pool — plus the source NIC,
// which only this group's window (and the serial domain between windows)
// ever touches. Completions stay in the conforming-parallel class: they fire
// as local events at DeliveredAt and defer their callbacks to the barrier.
func (f *Fabric) injectLane(sc *sim.ShardContext, src topo.NodeID) {
	g := sc.Group()
	lane := &f.lanes[g]
	nic := &f.nics[src]
	if nic.queueLen() == 0 {
		nic.injecting = false
		return
	}
	op := nic.headOp()
	now := sc.Now()
	nic.readyAt = max(nic.readyAt, now)

	chunkPackets := min(int64(f.cfg.PacketsPerChunk), op.packetsLeft)
	flitsPerPacket := f.cfg.RequestFlitsPerPacket(op.opts.Verb)
	chunkFlits := int(chunkPackets) * flitsPerPacket

	ready := max(nic.readyAt, nic.windowConstraint(f.cfg.MaxOutstandingPackets))

	srcRouter := f.topo.RouterOfNode(op.src)
	dstRouter := f.topo.RouterOfNode(op.dst)

	// Per-packet routing decision on the group's private lane: its own RNG
	// stream, its own candidate buffers, its own congestion view.
	hash := uint64(op.src)<<40 ^ uint64(op.dst)<<16 ^ lane.packets
	dec := f.spolicy.Route(int(g), op.opts.Mode, srcRouter, dstRouter, flitsPerPacket, hash, lane.view, ready)

	injStart := ready
	var arrival sim.Time
	if len(dec.Path) == 0 {
		arrival = injStart + int64(chunkFlits)*f.cfg.CyclesPerFlit + 2*f.cfg.ProcessorDelay
	} else {
		injStart = max(ready, f.laneFreeAt(lane, g, dec.Path[0]))
		if len(dec.Path) > 1 {
			second := dec.Path[1]
			injStart = max(injStart, f.laneFreeAt(lane, g, second)-f.links[second].bufferCycles)
		}
		t := injStart
		for i, id := range dec.Path {
			start := max(t, f.laneFreeAt(lane, g, id))
			if i+1 < len(dec.Path) {
				next := dec.Path[i+1]
				start = max(start, f.laneFreeAt(lane, g, next)-f.links[next].bufferCycles)
			}
			ser := f.links[id].serialization(chunkFlits)
			f.laneAdvance(lane, g, id, start, ser, uint64(chunkFlits), start-t)
			t = start + ser + f.links[id].propagation
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
		start := max(respArrival, f.laneFreeAt(lane, g, revID))
		ser := f.links[revID].serialization(respFlits)
		f.laneAdvance(lane, g, revID, start, ser, uint64(respFlits), 0)
		respArrival = start + ser + f.links[revID].propagation
	}
	respArrival += f.cfg.ProcessorDelay

	// NIC accounting for this chunk (the NIC is lane-owned state).
	stall := injStart - ready
	serNIC := int64(chunkFlits) * f.cfg.CyclesPerFlit
	nic.readyAt = injStart + serNIC
	nic.recordResponse(respArrival, f.cfg.MaxOutstandingPackets, &f.ringFree[g])
	lane.packets += uint64(chunkPackets)

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
		lane.putOp(op)
		lane.opsQueued--
		if done != nil || len(f.observers) > 0 {
			idx := lane.park(d, done)
			sc.Schedule(g, d.DeliveredAt, f, fabricOpDeliverLane, int64(g)<<40|int64(idx))
		}
	}

	if nic.queueLen() == 0 {
		nic.injecting = false
		return
	}
	sc.Schedule(g, nic.readyAt, f, fabricOpInject, int64(src))
}

// completeLaneDelivery fires the observers and done callback for a delivery
// parked by injectLane. It runs serially on the coordinator at the barrier
// of the window that executed the completion event (ShardContext.Defer).
func (f *Fabric) completeLaneDelivery(packed int64) {
	g := packed >> 40
	idx := int32(packed & (1<<40 - 1))
	lane := &f.lanes[g]
	pd := lane.pend[idx]
	lane.pend[idx] = pendingDelivery{}
	lane.pendFree = append(lane.pendFree, idx)
	for i := range f.observers {
		f.observers[i].fn(pd.d)
	}
	if pd.done != nil {
		pd.done(pd.d)
	}
}
