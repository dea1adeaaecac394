package network

import (
	"fmt"

	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// This file is the fabric half of intra-run sharding: the partition of
// fabric state by dragonfly group, the lookahead bound the horizon windows
// use, and the handoff that files packet events under the shard owning
// their group.
//
// The partition follows the topology's ID layout — routers, NICs and links
// are numbered group-contiguously, so a shard owns dense spans of every
// state arena. Packet inject events are filed under the source node's
// group, delivery events under the destination node's group; when the
// executing event's shard differs from the owner (a packet crossing a
// global link), the handoff rides the sharded engine's per-pair SPSC
// mailboxes.
//
// Packet *execution* stays in the serial domain (sim.Sharded's resident
// class), because the paper's globally-adaptive UGAL draws every
// candidate-path sample from one shared random stream and reads a
// machine-global congestion view — concurrent packet execution cannot
// reproduce the serial byte stream. Resident events keep the engine's global
// sequence numbers, so a sharded system's output is byte-identical to serial
// at every shard count, which is what every golden SHA256 table enforces.

// LookaheadCycles returns the conservative lookahead bound of this fabric:
// the minimum fixed latency any event needs to cross from one dragonfly
// group into another, i.e. the smallest propagation delay over the global
// (optical) links. It returns 0 when the topology has no global links
// (single-group geometries cannot shard).
func (f *Fabric) LookaheadCycles() sim.Time {
	return LookaheadCycles(f.cfg, f.topo)
}

// LookaheadCycles is the free-function form of Fabric.LookaheadCycles, for
// callers (cmd/topoinfo) that want the horizon of a geometry without
// building a fabric.
func LookaheadCycles(cfg Config, t *topo.Topology) sim.Time {
	var minLat sim.Time
	for _, l := range t.Links() {
		if l.Type != topo.LinkGlobal {
			continue
		}
		lat := sim.Time(cfg.propagationFor(l.Type))
		if minLat == 0 || lat < minLat {
			minLat = lat
		}
	}
	return minLat
}

// ShardSpan describes the dense slice of fabric state one shard owns.
type ShardSpan struct {
	// Shard is the shard index.
	Shard int
	// Groups is the [first, last] group range (inclusive).
	Groups [2]int
	// Nodes and Routers are the half-open ID ranges [first, past-last).
	Nodes   [2]int
	Routers [2]int
	// Links is the number of directed links whose source router the shard
	// owns.
	Links int
}

// AttachSharding partitions the fabric's event stream across the given
// sharded driver: from here on, packet inject and delivery events are filed
// under the shard that owns their group (keeping the engine's global
// sequence numbers, so output is byte-identical to the unsharded fabric).
// The driver must have been built with one partition domain per dragonfly
// group; the attachment survives Reset.
func (f *Fabric) AttachSharding(sh *sim.Sharded) error {
	if sh == nil {
		return fmt.Errorf("network: AttachSharding needs a sharded driver")
	}
	if got, want := sh.Groups(), f.topo.Config().Groups; got != want {
		return fmt.Errorf("network: sharded driver has %d groups, topology has %d", got, want)
	}
	if sh.Engine() != f.engine {
		return fmt.Errorf("network: sharded driver is attached to a different engine")
	}
	if f.groupOfNode == nil {
		f.groupOfNode = make([]int32, f.topo.NumNodes())
		for n := range f.groupOfNode {
			f.groupOfNode[n] = int32(f.topo.GroupOfNode(topo.NodeID(n)))
		}
	}
	f.sharded = sh
	return nil
}

// Sharding returns the sharded driver attached to this fabric, or nil.
func (f *Fabric) Sharding() *sim.Sharded { return f.sharded }

// ShardPlan reports the state spans each shard owns under the attached
// driver (nil when the fabric is unsharded). cmd/topoinfo renders it so
// users can judge partition balance before a run.
func (f *Fabric) ShardPlan() []ShardSpan {
	if f.sharded == nil {
		return nil
	}
	groups := f.sharded.Groups()
	spans := make([]ShardSpan, f.sharded.Shards())
	for i := range spans {
		spans[i] = ShardSpan{Shard: i, Groups: [2]int{groups, -1}, Nodes: [2]int{-1, -1}, Routers: [2]int{-1, -1}}
	}
	for g := 0; g < groups; g++ {
		sp := &spans[f.sharded.ShardOf(g)]
		if g < sp.Groups[0] {
			sp.Groups[0] = g
		}
		if g > sp.Groups[1] {
			sp.Groups[1] = g
		}
	}
	for i := range spans {
		sp := &spans[i]
		lo, hi := topo.GroupID(sp.Groups[0]), topo.GroupID(sp.Groups[1])
		for r := 0; r < f.topo.NumRouters(); r++ {
			if g := f.topo.GroupOf(topo.RouterID(r)); g >= lo && g <= hi {
				if sp.Routers[0] < 0 {
					sp.Routers[0] = r
				}
				sp.Routers[1] = r + 1
			}
		}
		for n := 0; n < f.topo.NumNodes(); n++ {
			if g := f.topo.GroupOfNode(topo.NodeID(n)); g >= lo && g <= hi {
				if sp.Nodes[0] < 0 {
					sp.Nodes[0] = n
				}
				sp.Nodes[1] = n + 1
			}
		}
	}
	for _, l := range f.topo.Links() {
		spans[f.sharded.ShardOf(int(f.topo.GroupOf(l.Src)))].Links++
	}
	return spans
}
