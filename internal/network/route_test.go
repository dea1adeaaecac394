package network

import (
	"math/rand"
	"testing"

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
