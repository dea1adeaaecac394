package network

import (
	"fmt"
	"testing"

	"dragonfly/internal/routing"
	"dragonfly/internal/topo"
)

// idleHopCycles is the closed-form cost of one packet of the given flit count
// crossing link l of an idle fabric: serialization at the link's width
// (rounded up, at least one cycle) plus the propagation delay of its tier.
func idleHopCycles(t *testing.T, cfg Config, l topo.Link, flits int) int64 {
	t.Helper()
	if l.Width < 1 {
		t.Fatalf("link %d has width %d", l.ID, l.Width)
	}
	width := int64(l.Width)
	ser := max((int64(flits)*cfg.CyclesPerFlit+width-1)/width, 1)
	prop := cfg.ElectricalPropagation
	if l.Type == topo.LinkGlobal {
		prop = cfg.OpticalPropagation
	}
	return ser + prop
}

// TestIdleFabricAnalyticLatency pins the exact timing of a single-packet Put
// on an idle SmallConfig(2) fabric against the closed form
//
//	DeliveredAt = SendStart + Σ_hops(max(⌈F·CyclesPerFlit/width⌉, 1) + propagation) + 2·ProcessorDelay
//
// with F = PutRequestFlits, or SendStart + F·CyclesPerFlit + 2·ProcessorDelay
// when both nodes share a router. The NIC always needs F·CyclesPerFlit to push
// the packet out, so SenderDone − SendStart is that on every route. Expected
// values come only from the Config and the links' widths and tiers. The pairs
// stay inside one group: a Delivery does not show which gateway an
// inter-group packet used.
func TestIdleFabricAnalyticLatency(t *testing.T) {
	const sendAt = 1000
	tt := topo.MustNew(topo.SmallConfig(2))
	cfg := DefaultConfig()
	flits := cfg.PutRequestFlits
	routerOf := func(c, b int) topo.RouterID {
		return tt.RouterAt(topo.Coord{Group: 0, Chassis: c, Blade: b})
	}
	link := func(a, b topo.RouterID, want topo.LinkType) topo.Link {
		t.Helper()
		id := tt.LinkBetween(a, b)
		if id == topo.InvalidLink {
			t.Fatalf("no link %d -> %d", a, b)
		}
		l := tt.Link(id)
		if l.Type != want {
			t.Fatalf("link %d -> %d is %v, want %v", a, b, l.Type, want)
		}
		return l
	}
	pathCycles := func(links ...topo.Link) int64 {
		var sum int64
		for _, l := range links {
			sum += idleHopCycles(t, cfg, l, flits)
		}
		return sum
	}

	r00, r01, r10, r11 := routerOf(0, 0), routerOf(0, 1), routerOf(1, 0), routerOf(1, 1)
	// The two-hop pair has two minimal paths (chassis link first or group
	// link first); the closed form must not depend on which one is routed.
	twoHops := pathCycles(link(r00, r01, topo.LinkIntraChassis), link(r01, r11, topo.LinkIntraGroup))
	if other := pathCycles(link(r00, r10, topo.LinkIntraGroup), link(r10, r11, topo.LinkIntraChassis)); other != twoHops {
		t.Fatalf("the two minimal paths cost %d and %d cycles; the expectation is ambiguous", twoHops, other)
	}

	routes := []struct {
		name     string
		src, dst topo.NodeID
		hops     int64 // Σ over the hops; 0 for the same router
	}{
		{"same-router", nodeAt(tt, 0, 0, 0, 0), nodeAt(tt, 0, 0, 0, 1), 0},
		{"intra-chassis", nodeAt(tt, 0, 0, 0, 0), nodeAt(tt, 0, 0, 1, 0),
			pathCycles(link(r00, r01, topo.LinkIntraChassis))},
		{"intra-group", nodeAt(tt, 0, 0, 0, 0), nodeAt(tt, 0, 1, 0, 0),
			pathCycles(link(r00, r10, topo.LinkIntraGroup))},
		{"two-hops", nodeAt(tt, 0, 0, 0, 0), nodeAt(tt, 0, 1, 1, 0), twoHops},
	}
	modes := []routing.Mode{routing.InOrder, routing.MinHash, routing.Adaptive, routing.AdaptiveHighBias}
	nicCycles := int64(flits) * cfg.CyclesPerFlit

	for _, r := range routes {
		want := r.hops + 2*cfg.ProcessorDelay
		if r.hops == 0 {
			want = nicCycles + 2*cfg.ProcessorDelay
		}
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/%s", r.name, mode.Name()), func(t *testing.T) {
				f, _, eng := testFabric(t, 2, 7)
				var got *Delivery
				eng.Schedule(sendAt, func() {
					err := f.Send(r.src, r.dst, int64(cfg.PacketBytes), SendOptions{Mode: mode},
						func(d Delivery) { got = &d })
					if err != nil {
						t.Error(err)
					}
				})
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				if got == nil {
					t.Fatal("message was never delivered")
				}
				if got.Counters.RequestPackets != 1 || got.Counters.MinimalPackets != 1 {
					t.Fatalf("want one minimally routed packet, got counters %+v", got.Counters)
				}
				if got.SendStart != sendAt {
					t.Fatalf("SendStart = %d, want %d", got.SendStart, sendAt)
				}
				if lat := got.DeliveredAt - got.SendStart; lat != want {
					t.Fatalf("DeliveredAt - SendStart = %d, want %d", lat, want)
				}
				if nic := got.SenderDone - got.SendStart; nic != nicCycles {
					t.Fatalf("SenderDone - SendStart = %d, want %d", nic, nicCycles)
				}
			})
		}
	}
}
