package network

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dragonfly/internal/perfmodel"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// testFabric builds a small fabric for unit tests.
func testFabric(t testing.TB, groups int, seed int64) (*Fabric, *topo.Topology, *sim.Engine) {
	if t != nil {
		t.Helper()
	}
	tt := topo.MustNew(topo.SmallConfig(groups))
	pol := routing.MustNewPolicy(tt, routing.DefaultParams())
	eng := sim.NewEngine(seed)
	f := MustNew(eng, tt, pol, DefaultConfig())
	return f, tt, eng
}

// nodeAt returns the i-th node of the router at the given coordinate.
func nodeAt(tt *topo.Topology, g, c, b, i int) topo.NodeID {
	r := tt.RouterAt(topo.Coord{Group: g, Chassis: c, Blade: b})
	return tt.NodesOfRouter(r)[i]
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.CyclesPerFlit = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero CyclesPerFlit")
	}
	bad = DefaultConfig()
	bad.BufferFlits = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero BufferFlits")
	}
	bad = DefaultConfig()
	bad.MaxOutstandingPackets = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero window")
	}
}

// TestPacketAndFlitAccounting pins how the fabric packetizes a PUT: one
// packet per 64 bytes, at least one, of five request flits each.
func TestPacketAndFlitAccounting(t *testing.T) {
	for _, c := range []struct {
		size           int64
		packets, flits uint64
	}{{0, 1, 5}, {64, 1, 5}, {65, 2, 10}, {1024, 16, 80}} {
		f, tt, eng := testFabric(t, 2, 1)
		var d Delivery
		if err := f.Send(nodeAt(tt, 0, 0, 0, 0), nodeAt(tt, 1, 0, 0, 0), c.size, SendOptions{Mode: routing.Adaptive},
			func(x Delivery) { d = x }); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if d.Counters.RequestPackets != c.packets || d.Counters.RequestFlits != c.flits {
			t.Fatalf("%d bytes sent as %d packets of %d flits, want %d and %d",
				c.size, d.Counters.RequestPackets, d.Counters.RequestFlits, c.packets, c.flits)
		}
	}
}

func TestSendDeliversAndCounts(t *testing.T) {
	f, tt, eng := testFabric(t, 2, 1)
	src := nodeAt(tt, 0, 0, 0, 0)
	dst := nodeAt(tt, 1, 1, 1, 0)
	var got *Delivery
	size := int64(4096)
	if err := f.Send(src, dst, size, SendOptions{Mode: routing.Adaptive, Tag: 7}, func(d Delivery) { got = &d }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("delivery callback never fired")
	}
	if got.Src != src || got.Dst != dst || got.Size != size || got.Tag != 7 {
		t.Fatalf("unexpected delivery metadata: %+v", got)
	}
	if !(got.SendStart <= got.SenderDone && got.SenderDone <= got.DeliveredAt) {
		t.Fatalf("time ordering violated: %+v", got)
	}
	if got.LastResponseAt < got.DeliveredAt {
		t.Fatalf("response before delivery: %+v", got)
	}
	g := perfmodel.GeometryForSize(size)
	wantPackets := uint64(g.Packets)
	if got.Counters.RequestPackets != wantPackets {
		t.Fatalf("packets = %d, want %d", got.Counters.RequestPackets, wantPackets)
	}
	if got.Counters.RequestFlits != uint64(g.Flits) {
		t.Fatalf("flits = %d, want %d", got.Counters.RequestFlits, g.Flits)
	}
	if got.Counters.RequestPacketsCumLatency == 0 {
		t.Fatal("cumulative latency must be positive")
	}
	nc := f.NodeCounters(src)
	if nc.RequestPackets != wantPackets {
		t.Fatalf("NIC cumulative packets = %d, want %d", nc.RequestPackets, wantPackets)
	}
	if f.NodeCounters(dst).RequestPackets != 0 {
		t.Fatal("destination NIC must not count request packets it did not send")
	}
	if f.PacketsInjected() != wantPackets {
		t.Fatalf("PacketsInjected = %d, want %d", f.PacketsInjected(), wantPackets)
	}
}

func TestLoopbackDoesNotTouchNIC(t *testing.T) {
	f, tt, eng := testFabric(t, 2, 2)
	n := nodeAt(tt, 0, 0, 0, 0)
	var got *Delivery
	if err := f.Send(n, n, 1<<20, SendOptions{}, func(d Delivery) { got = &d }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("loopback delivery never fired")
	}
	if got.DeliveredAt <= got.SendStart {
		t.Fatal("loopback must take time")
	}
	if f.NodeCounters(n).RequestPackets != 0 {
		t.Fatal("loopback must not increment NIC counters")
	}
}

func TestSendErrors(t *testing.T) {
	f, tt, _ := testFabric(t, 2, 3)
	n := nodeAt(tt, 0, 0, 0, 0)
	if err := f.Send(n, topo.NodeID(10_000), 64, SendOptions{}, nil); err == nil {
		t.Fatal("expected error for invalid destination")
	}
	if err := f.Send(topo.NodeID(-1), n, 64, SendOptions{}, nil); err == nil {
		t.Fatal("expected error for invalid source")
	}
	if err := f.Send(n, n, -5, SendOptions{}, nil); err == nil {
		t.Fatal("expected error for negative size")
	}
}

func TestInterGroupSlowerThanIntraChassis(t *testing.T) {
	run := func(dst topo.NodeID) int64 {
		f, tt, eng := testFabric(t, 2, 4)
		src := nodeAt(tt, 0, 0, 0, 0)
		var d Delivery
		if err := f.Send(src, dst, 4096, SendOptions{Mode: routing.AdaptiveHighBias}, func(x Delivery) { d = x }); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return d.TransmissionCycles()
	}
	tt := topo.MustNew(topo.SmallConfig(2))
	near := run(nodeAt(tt, 0, 0, 1, 0))
	far := run(nodeAt(tt, 1, 1, 2, 0))
	if far <= near {
		t.Fatalf("inter-group (%d cycles) must be slower than intra-chassis (%d cycles)", far, near)
	}
}

func TestLargerMessagesTakeLonger(t *testing.T) {
	times := make([]int64, 0, 3)
	for _, size := range []int64{256, 4096, 65536} {
		f, tt, eng := testFabric(t, 2, 5)
		src := nodeAt(tt, 0, 0, 0, 0)
		dst := nodeAt(tt, 1, 0, 0, 0)
		var d Delivery
		if err := f.Send(src, dst, size, SendOptions{Mode: routing.Adaptive}, func(x Delivery) { d = x }); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		times = append(times, d.TransmissionCycles())
	}
	if !(times[0] < times[1] && times[1] < times[2]) {
		t.Fatalf("transmission times not monotone in size: %v", times)
	}
}

func TestIncastCausesStalls(t *testing.T) {
	f, tt, eng := testFabric(t, 2, 6)
	dst := nodeAt(tt, 0, 0, 0, 0)
	// Many senders target the same destination router: the last hop is a
	// shared bottleneck and back-pressure must appear as NIC stalls somewhere.
	senders := []topo.NodeID{}
	for c := 0; c < 2; c++ {
		for b := 0; b < 4; b++ {
			if c == 0 && b == 0 {
				continue
			}
			senders = append(senders, nodeAt(tt, 0, c, b, 0), nodeAt(tt, 0, c, b, 1))
		}
	}
	for _, s := range senders {
		if err := f.Send(s, dst, 1<<16, SendOptions{Mode: routing.MinHash}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var totalStalls uint64
	for _, s := range senders {
		totalStalls += f.NodeCounters(s).RequestFlitsStalledCycles
	}
	if totalStalls == 0 {
		t.Fatal("incast produced no stall cycles")
	}
}

func TestQueueCyclesStaleView(t *testing.T) {
	f, tt, eng := testFabric(t, 2, 7)
	src := nodeAt(tt, 0, 0, 0, 0)
	dst := nodeAt(tt, 0, 0, 1, 0)
	// Saturate the direct link.
	if err := f.Send(src, dst, 1<<18, SendOptions{Mode: routing.InOrder}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	id := tt.LinkBetween(tt.RouterOfNode(src), tt.RouterOfNode(dst))
	now := eng.Now()
	stale := f.links[id].queue(now, f.Config().CreditDelay)
	if stale < 0 {
		t.Fatal("negative backlog")
	}
	k := f.kindOf(id)
	if k.propagation <= 0 {
		t.Fatal("propagation must be positive")
	}
	if k.serialization(5) <= 0 {
		t.Fatal("serialization must be positive")
	}
	if got, want := routing.PathCost(topo.Path{id}, 5, f, now), stale+k.propagation+k.serialization(5); got != want {
		t.Fatalf("PathCost = %d, want backlog + propagation + serialization = %d", got, want)
	}
}

func TestHighBiasSendsMoreMinimalPackets(t *testing.T) {
	countMinimal := func(mode routing.Mode) (minimal, total uint64) {
		f, tt, eng := testFabric(nil, 3, 8)
		// Background traffic between groups 0 and 1 to create congestion.
		for b := 0; b < 4; b++ {
			s := nodeAt(tt, 0, 0, b, 0)
			d := nodeAt(tt, 1, 0, b, 0)
			if err := f.Send(s, d, 1<<16, SendOptions{Mode: routing.Adaptive}, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Measured flow under test.
		src := nodeAt(tt, 0, 1, 0, 0)
		dst := nodeAt(tt, 1, 1, 0, 0)
		if err := f.Send(src, dst, 1<<16, SendOptions{Mode: mode}, nil); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		c := f.NodeCounters(src)
		return c.MinimalPackets, c.RequestPackets
	}
	minAdaptive, totalAdaptive := countMinimal(routing.Adaptive)
	minBias, totalBias := countMinimal(routing.AdaptiveHighBias)
	fracAdaptive := float64(minAdaptive) / float64(totalAdaptive)
	fracBias := float64(minBias) / float64(totalBias)
	if fracBias < fracAdaptive {
		t.Fatalf("high bias minimal fraction %.3f < adaptive %.3f", fracBias, fracAdaptive)
	}
	if fracBias < 0.5 {
		t.Fatalf("high bias should route mostly minimally, got %.3f", fracBias)
	}
}

func TestManyPacketsWindow(t *testing.T) {
	// More packets than the outstanding window: must still complete, and the
	// completion time must account for at least one extra round trip.
	cfg := DefaultConfig()
	cfg.MaxOutstandingPackets = 8
	tt := topo.MustNew(topo.SmallConfig(2))
	pol := routing.MustNewPolicy(tt, routing.DefaultParams())
	eng := sim.NewEngine(9)
	f := MustNew(eng, tt, pol, cfg)
	src := nodeAt(tt, 0, 0, 0, 0)
	dst := nodeAt(tt, 1, 0, 0, 0)
	var d Delivery
	if err := f.Send(src, dst, 64*64, SendOptions{Mode: routing.InOrder}, func(x Delivery) { d = x }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Counters.RequestPackets != 64 {
		t.Fatalf("packets = %d, want 64", d.Counters.RequestPackets)
	}
	if d.DeliveredAt <= d.SendStart {
		t.Fatal("message did not take time")
	}
}

func TestIncomingFlits(t *testing.T) {
	f, tt, eng := testFabric(t, 2, 10)
	src := nodeAt(tt, 0, 0, 0, 0)
	dst := nodeAt(tt, 0, 1, 0, 0)
	if err := f.Send(src, dst, 1<<14, SendOptions{Mode: routing.MinHash}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	dstRouters := map[topo.RouterID]bool{tt.RouterOfNode(dst): true}
	flits, _ := f.IncomingFlits(dstRouters)
	if flits == 0 {
		t.Fatal("destination router observed no incoming flits")
	}
	empty := map[topo.RouterID]bool{}
	if fl, st := f.IncomingFlits(empty); fl != 0 || st != 0 {
		t.Fatal("empty router set must observe nothing")
	}
}

// TestIncomingFlitsMatchesLinkScan pins IncomingFlits, which walks the
// reverses of the given routers' outgoing links, to a scan of every link
// whose destination is in the set, on a fabric loaded with random adaptive
// traffic: over random router subsets, the empty set, every router, entries
// set to false and a router ID outside the machine.
func TestIncomingFlitsMatchesLinkScan(t *testing.T) {
	f, tt, eng := testFabric(t, 4, 12)
	rng := rand.New(rand.NewSource(12))
	for k := 0; k < 64; k++ {
		src := topo.NodeID(rng.Intn(tt.NumNodes()))
		dst := topo.NodeID(rng.Intn(tt.NumNodes()))
		if err := f.Send(src, dst, int64(1+rng.Intn(1<<14)), SendOptions{Mode: routing.Adaptive}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	scan := func(routers map[topo.RouterID]bool) (flits, stalled uint64) {
		for _, l := range tt.Links() {
			if routers[l.Dst] {
				flits += f.TileCounters(l.ID).FlitsTraversed
				stalled += f.TileCounters(l.ID).StalledCycles
			}
		}
		return flits, stalled
	}
	all := map[topo.RouterID]bool{}
	for r := 0; r < tt.NumRouters(); r++ {
		all[topo.RouterID(r)] = true
	}
	sets := []map[topo.RouterID]bool{{}, all, {topo.RouterID(tt.NumRouters()): true, 0: false}}
	for range 50 {
		set := map[topo.RouterID]bool{}
		for r := 0; r < tt.NumRouters(); r++ {
			if rng.Intn(4) == 0 {
				set[topo.RouterID(r)] = rng.Intn(3) > 0
			}
		}
		sets = append(sets, set)
	}
	for _, set := range sets {
		gotFlits, gotStalled := f.IncomingFlits(set)
		wantFlits, wantStalled := scan(set)
		if gotFlits != wantFlits || gotStalled != wantStalled {
			t.Fatalf("IncomingFlits(%v) = %d flits, %d stalled; the link scan gives %d, %d",
				set, gotFlits, gotStalled, wantFlits, wantStalled)
		}
	}
	if flits, stalled := scan(all); flits == 0 || stalled == 0 {
		t.Fatalf("weak coverage: the load left %d flits and %d stalled cycles", flits, stalled)
	}
}

func TestTileCountersPopulated(t *testing.T) {
	f, tt, eng := testFabric(t, 2, 11)
	src := nodeAt(tt, 0, 0, 0, 0)
	dst := nodeAt(tt, 0, 0, 1, 0)
	if err := f.Send(src, dst, 4096, SendOptions{Mode: routing.InOrder}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	id := tt.LinkBetween(tt.RouterOfNode(src), tt.RouterOfNode(dst))
	tc := f.TileCounters(id)
	if tc.FlitsTraversed == 0 || tc.BusyCycles == 0 {
		t.Fatalf("tile counters empty: %+v", tc)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, uint64) {
		f, tt, eng := testFabric(t, 3, 42)
		for i := 0; i < 6; i++ {
			src := nodeAt(tt, 0, 0, i%4, 0)
			dst := nodeAt(tt, (i%2)+1, 1, i%4, 1)
			if err := f.Send(src, dst, 8192, SendOptions{Mode: routing.Adaptive}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		var stalls uint64
		for n := 0; n < tt.NumNodes(); n++ {
			stalls += f.NodeCounters(topo.NodeID(n)).RequestFlitsStalledCycles
		}
		return eng.Now(), stalls
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("simulation not deterministic: (%d,%d) vs (%d,%d)", t1, s1, t2, s2)
	}
}

// Property: for any message size, the per-message counters and the sending
// NIC's counter delta carry perfmodel.GeometryForSize, the geometry the
// selector's Eq. 2 estimates use.
func TestPropertyCountersMatchSize(t *testing.T) {
	matches := func(size int64) bool {
		fab, tt, eng := testFabric(nil, 2, 13)
		src := nodeAt(tt, 0, 0, 0, 0)
		dst := nodeAt(tt, 1, 0, 0, 0)
		before := fab.NodeCounters(src)
		var d Delivery
		if err := fab.Send(src, dst, size, SendOptions{Mode: routing.AdaptiveHighBias}, func(x Delivery) { d = x }); err != nil {
			return false
		}
		if err := eng.Run(); err != nil {
			return false
		}
		nic := fab.NodeCounters(src).Sub(before)
		g := perfmodel.GeometryForSize(size)
		packets, flits := uint64(g.Packets), uint64(g.Flits)
		return d.Counters.RequestPackets == packets &&
			d.Counters.RequestFlits == flits &&
			d.Counters.MinimalPackets+d.Counters.NonMinimalPackets == packets &&
			nic.RequestPackets == packets && nic.RequestFlits == flits
	}
	for _, size := range []int64{0, 1, 63, 64, 65, 4096, 1 << 20} {
		if !matches(size) {
			t.Fatalf("the counters of a %d-byte send differ from %+v", size, perfmodel.GeometryForSize(size))
		}
	}
	f := func(sizeKB uint8) bool { return matches(int64(sizeKB)*64 + 1) }
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSendInterGroup64KiB sends one 1024-packet message between two
// groups per op, so each op is 1024 injections, routing decisions and path
// walks. One untimed send first grows the pools, the event heap and the
// candidate buffers; after it the per-packet path must not allocate
// (send_allocs_per_op in BENCH_budget.txt).
func BenchmarkSendInterGroup64KiB(b *testing.B) {
	f, tt, eng := testFabric(b, 2, 14)
	src := nodeAt(tt, 0, 0, 0, 0)
	dst := nodeAt(tt, 1, 0, 0, 0)
	send := func() {
		if err := f.Send(src, dst, 1<<16, SendOptions{Mode: routing.Adaptive}, nil); err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
	send()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}
