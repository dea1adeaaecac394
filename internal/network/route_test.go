package network

import (
	"math"
	"math/rand"
	"testing"

	"dragonfly/internal/perfmodel"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// TestRouteAllocationFreeOnDaint runs the adaptive decision the way inject
// does: on the Daint rung (14 full Aries groups), with a live Fabric as the
// congestion view, over intra-chassis, intra-group and inter-group pairs. It
// must not allocate once the candidate buffers are sized.
func TestRouteAllocationFreeOnDaint(t *testing.T) {
	tt := topo.MustNew(topo.AriesConfig(14))
	pol := routing.MustNewPolicy(tt, routing.DefaultParams())
	eng := sim.NewEngine(1)
	f := MustNew(eng, tt, pol, DefaultConfig())
	// Load the fabric so the view reports real backlog.
	for k := 0; k < 4; k++ {
		if err := f.Send(nodeAt(tt, 0, 0, k, 0), nodeAt(tt, 13, 5, 15-k, 0), 1<<14, SendOptions{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunUntil(2000); err != nil {
		t.Fatal(err)
	}
	pairs := [][2]topo.RouterID{
		{tt.RouterAt(topo.Coord{Group: 0, Chassis: 0, Blade: 0}), tt.RouterAt(topo.Coord{Group: 0, Chassis: 0, Blade: 7})},
		{tt.RouterAt(topo.Coord{Group: 3, Chassis: 1, Blade: 2}), tt.RouterAt(topo.Coord{Group: 3, Chassis: 4, Blade: 9})},
		{tt.RouterAt(topo.Coord{Group: 0, Chassis: 0, Blade: 0}), tt.RouterAt(topo.Coord{Group: 13, Chassis: 5, Blade: 15})},
		{tt.RouterAt(topo.Coord{Group: 7, Chassis: 2, Blade: 3}), tt.RouterAt(topo.Coord{Group: 1, Chassis: 0, Blade: 11})},
	}
	var view routing.CongestionView = f
	rng := rand.New(rand.NewSource(1))
	route := func() {
		for _, p := range pairs {
			pol.Route(routing.Adaptive, p[0], p[1], 5, 0, view, eng.Now(), rng)
		}
	}
	route()
	if allocs := testing.AllocsPerRun(200, route); allocs != 0 {
		t.Fatalf("Route on Daint with the fabric as view allocates %.1f per run, want 0", allocs)
	}
}

// TestCostBelowMatchesFullCost checks the fabric's two-pass CostBelow against
// a full per-hop costing (idle hop cost plus perceived backlog) on a fabric
// loaded with random traffic, so backlogs and stale views are non-trivial.
// For candidate paths of random router pairs and bounds around each path's
// cost, below must be exactly full < bound, a path reported below must carry
// its full cost, and one reported not below a value >= bound.
func TestCostBelowMatchesFullCost(t *testing.T) {
	f, tt, eng := testFabric(t, 4, 3)
	cfg := f.Config()
	traffic := rand.New(rand.NewSource(11))
	for k := 0; k < 48; k++ {
		src := topo.NodeID(traffic.Intn(tt.NumNodes()))
		dst := topo.NodeID(traffic.Intn(tt.NumNodes()))
		size := int64(perfmodel.PacketBytes * (1 + traffic.Intn(64)))
		if err := f.Send(src, dst, size, SendOptions{Mode: routing.Adaptive}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Packet sizes the fabric sends, plus one past the serialization table.
	flitCounts := []int{perfmodel.PutFlitsPerPacket, responseFlits, 64}
	rng := rand.New(rand.NewSource(5))
	var buf topo.PathBuffer
	var checked, backlogged, stale int
	for step := 0; step < 20; step++ {
		if err := eng.RunUntil(eng.Now() + 400); err != nil {
			t.Fatal(err)
		}
		now := eng.Now()
		for q := 0; q < 10; q++ {
			a := topo.RouterID(rng.Intn(tt.NumRouters()))
			b := topo.RouterID(rng.Intn(tt.NumRouters()))
			if a == b {
				continue
			}
			minimal, nonMinimal := tt.SamplePathsInto(&buf, a, b, 2, 2, rng)
			for _, paths := range [][]topo.Path{minimal, nonMinimal} {
				for _, path := range paths {
					flits := flitCounts[rng.Intn(len(flitCounts))]
					var floor, full int64
					for _, id := range path {
						ls := &f.links[id]
						backlog := ls.queue(now, cfg.CreditDelay)
						hop := idleHopCycles(t, cfg, tt.Link(id), flits)
						floor += hop
						full += hop + backlog
						if backlog > 0 {
							backlogged++
						}
						if now-ls.lastChange < cfg.CreditDelay && ls.prevFreeAt != ls.freeAt {
							stale++
						}
					}
					for _, bound := range []int64{floor - 1, floor, floor + 1, full - 1, full, full + 1, math.MaxInt64} {
						cost, below := f.CostBelow(path, flits, now, bound)
						if below != (full < bound) {
							t.Fatalf("path %v, %d flits, bound %d: below = %v, but the full cost is %d",
								path, flits, bound, below, full)
						}
						if below && cost != full {
							t.Fatalf("path %v, %d flits, bound %d: cost %d, want the full cost %d",
								path, flits, bound, cost, full)
						}
						if !below && cost < bound {
							t.Fatalf("path %v, %d flits, bound %d: not below, but returned %d", path, flits, bound, cost)
						}
						checked++
					}
				}
			}
		}
	}
	if backlogged == 0 || stale == 0 {
		t.Fatalf("weak coverage over %d checks: %d backlogged hops, %d hops with a stale view",
			checked, backlogged, stale)
	}
}
