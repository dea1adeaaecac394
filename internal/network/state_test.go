package network

import (
	"math/rand"
	"testing"

	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// --- linkState: stale congestion view -------------------------------------

// TestQueueCyclesStaleWindow pins the credit-delay semantics: until
// CreditDelay cycles have elapsed since the link last advanced, the routing
// pipeline observes the previous freeAt (the "phantom congestion" of the
// paper); at and after the boundary it sees the current one.
func TestQueueCyclesStaleWindow(t *testing.T) {
	f, _, _ := testFabric(t, 2, 1)
	if f.cfg.CreditDelay != 600 {
		t.Fatalf("test assumes the default CreditDelay of 600, got %d", f.cfg.CreditDelay)
	}
	id := topo.LinkID(0)
	ls := &f.links[id]
	ls.freeAt = 2000
	ls.prevFreeAt = 1200
	ls.lastChange = 1000

	cases := []struct {
		now  int64
		want int64
		why  string
	}{
		{1100, 100, "inside the credit window: backlog from prevFreeAt (1200-1100)"},
		{1599, 0, "inside the window but prevFreeAt already passed: clamped to 0"},
		{1600, 400, "at the boundary (now-lastChange == CreditDelay): fresh view (2000-1600)"},
		{1700, 300, "past the window: fresh view (2000-1700)"},
		{2500, 0, "past freeAt: no backlog"},
	}
	k := f.kindOf(id)
	fixed := k.propagation + k.serialization(5)
	for _, c := range cases {
		if got := ls.queue(c.now, f.cfg.CreditDelay); got != c.want {
			t.Errorf("queue(now=%d) = %d, want %d (%s)", c.now, got, c.want, c.why)
		}
		// A one-hop path costs that backlog plus the link's fixed per-packet cost.
		if got := routing.PathCost(topo.Path{id}, 5, f, c.now); got != c.want+fixed {
			t.Errorf("PathCost(now=%d) = %d, want %d", c.now, got, c.want+fixed)
		}
	}
}

// TestLinkAdvanceShiftsStaleView checks advance() maintains the
// (freeAt, prevFreeAt, lastChange) triple the stale view is built from.
func TestLinkAdvanceShiftsStaleView(t *testing.T) {
	var ls linkState
	ls.advance(100, 500) // at t=100 the link books work until t=500
	if ls.prevFreeAt != 0 || ls.lastChange != 100 || ls.freeAt != 500 {
		t.Fatalf("after first advance: %+v", ls)
	}
	ls.advance(400, 900)
	if ls.prevFreeAt != 500 || ls.lastChange != 400 || ls.freeAt != 900 {
		t.Fatalf("after second advance: %+v", ls)
	}
}

// TestStaleViewThroughFabric drives the stale view end-to-end: right after a
// send congests a link, the perceived backlog still reflects the pre-send
// state; after CreditDelay has elapsed the real backlog becomes visible.
func TestStaleViewThroughFabric(t *testing.T) {
	f, tt, eng := testFabric(t, 2, 1)
	src := nodeAt(tt, 0, 0, 0, 0)
	dst := nodeAt(tt, 0, 0, 1, 0) // direct intra-chassis neighbour

	// A large message keeps the first-hop link busy far into the future.
	if err := f.Send(src, dst, 1<<20, SendOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	// Find the busiest link out of the source router: the request path's
	// first hop.
	var hot topo.LinkID = topo.InvalidLink
	var hotFreeAt int64
	for _, l := range tt.Links() {
		if ls := &f.links[l.ID]; ls.freeAt > hotFreeAt {
			hot, hotFreeAt = l.ID, ls.freeAt
		}
	}
	if hot == topo.InvalidLink || hotFreeAt <= eng.Now() {
		t.Fatalf("no congested link found (freeAt=%d, now=%d)", hotFreeAt, eng.Now())
	}
	ls := &f.links[hot]
	now := ls.lastChange + 1 // just after the last advance: stale window active
	stale := ls.queue(now, f.cfg.CreditDelay)
	fresh := max(ls.freeAt-now, 0)
	if stale >= fresh {
		t.Fatalf("stale view (%d) should underestimate the real backlog (%d)", stale, fresh)
	}
	after := ls.lastChange + f.cfg.CreditDelay
	if got, want := ls.queue(after, f.cfg.CreditDelay), max(ls.freeAt-after, 0); got != want {
		t.Fatalf("post-window view = %d, want the real backlog %d", got, want)
	}
}

// --- nicState: outstanding-packet ring buffer ------------------------------

// TestWindowRingWraparound pins the ring-buffer mechanics of the NIC's
// outstanding-packet window: the ring is allocated lazily on the first
// recorded response, no constraint applies until the window fills, then the
// oldest outstanding response bounds the next injection, with windowIdx
// wrapping modulo the window size.
func TestWindowRingWraparound(t *testing.T) {
	var n nicState // window nil: idle NICs never allocate a ring
	var free [][]sim.Time
	if got := n.windowConstraint(4); got != 0 {
		t.Fatalf("empty window constraint = %d, want 0", got)
	}
	if n.window != nil {
		t.Fatal("windowConstraint on an idle NIC must not allocate the ring")
	}
	for i, resp := range []sim.Time{10, 20, 30} {
		n.recordResponse(resp, 4, &free)
		if got := n.windowConstraint(4); got != 0 {
			t.Fatalf("after %d records (window not full) constraint = %d, want 0", i+1, got)
		}
	}
	if len(n.window) != 4 {
		t.Fatalf("ring allocated with %d slots, want 4", len(n.window))
	}
	n.recordResponse(40, 4, &free)
	// Window full: oldest outstanding response (10) gates injection, and the
	// ring index has wrapped back to slot 0.
	if n.windowIdx != 0 || n.windowLen != 4 {
		t.Fatalf("windowIdx=%d windowLen=%d, want 0 and 4", n.windowIdx, n.windowLen)
	}
	if got := n.windowConstraint(4); got != 10 {
		t.Fatalf("full window constraint = %d, want oldest response 10", got)
	}
	// Each further record evicts the oldest and advances the ring.
	for _, c := range []struct{ resp, want sim.Time }{{50, 20}, {60, 30}, {70, 40}, {80, 50}, {90, 60}} {
		n.recordResponse(c.resp, 4, &free)
		if got := n.windowConstraint(4); got != c.want {
			t.Fatalf("after recording %d: constraint = %d, want %d", c.resp, got, c.want)
		}
	}
	if n.windowLen != 4 {
		t.Fatalf("windowLen grew past the window: %d", n.windowLen)
	}
}

// TestResetRecyclesRings runs Reset-plus-trial cycles whose senders are
// placed at random, as noise jobs are, and checks the outstanding-packet
// rings stay bounded: after every Reset the free list holds no more rings
// than the most any one trial used, although the trials together touch far
// more distinct nodes than that.
func TestResetRecyclesRings(t *testing.T) {
	f, tt, eng := testFabric(t, 4, 1)
	placement := rand.New(rand.NewSource(42))
	maxUsed := 0
	touched := make(map[topo.NodeID]bool)
	for trial := 0; trial < 30; trial++ {
		eng.Reset(int64(trial))
		f.Reset()
		for i := range f.nics {
			if f.nics[i].window != nil {
				t.Fatalf("trial %d: NIC %d kept its ring across Reset", trial, i)
			}
		}
		live := len(f.ringFree)
		if live > maxUsed {
			t.Fatalf("trial %d: free list holds %d rings, but no trial used more than %d",
				trial, live, maxUsed)
		}

		for k := 0; k < 8; k++ {
			src := topo.NodeID(placement.Intn(tt.NumNodes()))
			dst := topo.NodeID(placement.Intn(tt.NumNodes()))
			if err := f.Send(src, dst, 4096, SendOptions{}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		used := 0
		for i := range f.nics {
			if f.nics[i].window != nil {
				used++
				touched[topo.NodeID(i)] = true
			}
		}
		// Rings come from the free list first, so a list that is not empty
		// yet has supplied every ring the trial used.
		if free := len(f.ringFree); free > 0 && used+free != live {
			t.Fatalf("trial %d: used %d rings and has %d free, but started with %d",
				trial, used, free, live)
		}
		maxUsed = max(maxUsed, used)
	}
	if maxUsed >= len(touched) {
		t.Fatalf("%d rings for %d distinct senders: random placement should touch more nodes than any trial uses",
			maxUsed, len(touched))
	}
}

// TestWindowLimitsInjection checks the window end-to-end: with a
// one-outstanding-packet window, a multi-packet message takes (much) longer
// than with the default 1024 window, because every packet must wait for the
// previous response.
func TestWindowLimitsInjection(t *testing.T) {
	run := func(window int) sim.Time {
		tt := topo.MustNew(topo.SmallConfig(2))
		cfg := DefaultConfig()
		cfg.MaxOutstandingPackets = window
		eng := sim.NewEngine(1)
		f := MustNew(eng, tt, routing.MustNewPolicy(tt, routing.DefaultParams()), cfg)
		src := nodeAt(tt, 0, 0, 0, 0)
		dst := nodeAt(tt, 1, 0, 0, 0)
		var deliveredAt sim.Time
		if err := f.Send(src, dst, 64*64, SendOptions{}, func(d Delivery) {
			deliveredAt = d.DeliveredAt
		}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return deliveredAt
	}
	tight, wide := run(1), run(1024)
	if tight <= wide {
		t.Fatalf("window=1 delivery (%d) should be slower than window=1024 (%d)", tight, wide)
	}
}

// --- pooled ops and fabric reset -------------------------------------------

// TestSendOpPoolRecycles checks completed sends return their ops to the pool
// and subsequent sends reuse them.
func TestSendOpPoolRecycles(t *testing.T) {
	f, tt, eng := testFabric(t, 2, 1)
	src := nodeAt(tt, 0, 0, 0, 0)
	dst := nodeAt(tt, 1, 0, 0, 0)
	for i := 0; i < 4; i++ {
		if err := f.Send(src, dst, 256, SendOptions{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(f.opFree) == 0 {
		t.Fatal("no ops returned to the pool after completed sends")
	}
	recycled := len(f.opFree)
	if err := f.Send(src, dst, 256, SendOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	if len(f.opFree) != recycled-1 {
		t.Fatalf("send did not draw from the pool: free %d -> %d", recycled, len(f.opFree))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(f.opFree) != recycled {
		t.Fatalf("completed send did not return its op: free = %d, want %d", len(f.opFree), recycled)
	}
}

// TestFabricResetMatchesFresh is the fabric half of cross-trial reuse: after
// engine.Reset + fabric.Reset, a rerun must be byte-identical to a run on a
// freshly built fabric — same delivery times, same counters, same packet
// totals.
func TestFabricResetMatchesFresh(t *testing.T) {
	type outcome struct {
		now       sim.Time
		delivered []sim.Time
		packets   uint64
	}
	run := func(f *Fabric, eng *sim.Engine, tt *topo.Topology) outcome {
		var out outcome
		src := nodeAt(tt, 0, 0, 0, 0)
		for _, g := range []int{1, 0, 1} {
			dst := nodeAt(tt, g, 0, 1, 0)
			if err := f.Send(src, dst, 4096, SendOptions{}, func(d Delivery) {
				out.delivered = append(out.delivered, d.DeliveredAt)
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		out.now = eng.Now()
		out.packets = f.PacketsInjected()
		return out
	}

	f1, tt1, eng1 := testFabric(t, 2, 7)
	fresh := run(f1, eng1, tt1)

	f2, tt2, eng2 := testFabric(t, 2, 7)
	run(f2, eng2, tt2) // dirty the fabric with a first epoch
	eng2.Reset(7)
	f2.Reset()
	reset := run(f2, eng2, tt2)

	if fresh.now != reset.now || fresh.packets != reset.packets {
		t.Fatalf("reset run differs: fresh (now=%d packets=%d) vs reset (now=%d packets=%d)",
			fresh.now, fresh.packets, reset.now, reset.packets)
	}
	if len(fresh.delivered) != len(reset.delivered) {
		t.Fatalf("delivery counts differ: %d vs %d", len(fresh.delivered), len(reset.delivered))
	}
	for i := range fresh.delivered {
		if fresh.delivered[i] != reset.delivered[i] {
			t.Fatalf("delivery %d differs: %d vs %d", i, fresh.delivered[i], reset.delivered[i])
		}
	}
	// Counters must match node by node.
	for n := 0; n < tt1.NumNodes(); n++ {
		if f1.NodeCounters(topo.NodeID(n)) != f2.NodeCounters(topo.NodeID(n)) {
			t.Fatalf("node %d counters differ after reset", n)
		}
	}
}

// TestFabricResetClearsObserver checks Reset drops the delivery observer, so
// a reused system cannot leak deliveries into a previous trial's log.
func TestFabricResetClearsObserver(t *testing.T) {
	f, tt, eng := testFabric(t, 2, 1)
	leaked := 0
	f.AddDeliveryObserver(func(Delivery) { leaked++ })
	eng.Reset(1)
	f.Reset()
	if err := f.Send(nodeAt(tt, 0, 0, 0, 0), nodeAt(tt, 1, 0, 0, 0), 64, SendOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if leaked != 0 {
		t.Fatalf("stale observer saw %d deliveries after Reset", leaked)
	}
}
