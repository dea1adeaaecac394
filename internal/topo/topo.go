// Package topo models the Cray Aries Dragonfly topology used by the paper
// "Mitigating Network Noise on Dragonfly Networks through Application-Aware
// Routing" (De Sensi et al., SC'19).
//
// The Aries interconnect is organized in three connectivity tiers: groups,
// chassis and blades. Each group contains ChassisPerGroup chassis, each
// chassis contains BladesPerChassis blades, and each blade holds one Aries
// router plus NodesPerBlade compute nodes. Within a group a router is directly
// connected to every other router in the same chassis (intra-chassis links)
// and to the routers in the same blade position of every other chassis
// (intra-group, "row" links). Groups are connected by optical global links
// attached to individual routers.
//
// The package provides construction of the topology graph, node-to-router
// mapping, allocation-distance classification, and sampling of minimal and
// non-minimal (Valiant-style) paths used by the routing package.
package topo

import (
	"fmt"
)

// RouterID identifies an Aries router (one per blade).
type RouterID int32

// NodeID identifies a compute node.
type NodeID int32

// GroupID identifies a Dragonfly group.
type GroupID int32

// LinkID indexes a directed router-to-router link in Topology.Links.
type LinkID int32

// InvalidLink is returned by lookups when no link connects two routers.
const InvalidLink LinkID = -1

// LinkType classifies a link by its tier; the network model assigns different
// propagation latencies and widths per type.
type LinkType uint8

const (
	// LinkIntraChassis connects two routers in the same chassis (backplane).
	LinkIntraChassis LinkType = iota
	// LinkIntraGroup connects two routers in the same blade position of two
	// chassis of the same group (electrical cable).
	LinkIntraGroup
	// LinkGlobal connects routers in two different groups (optical cable).
	LinkGlobal
)

// NumLinkTypes is the number of link tiers; tables indexed by LinkType have
// this many entries.
const NumLinkTypes = int(LinkGlobal) + 1

// String returns a human-readable link type name.
func (t LinkType) String() string {
	switch t {
	case LinkIntraChassis:
		return "intra-chassis"
	case LinkIntraGroup:
		return "intra-group"
	case LinkGlobal:
		return "global"
	default:
		return fmt.Sprintf("LinkType(%d)", uint8(t))
	}
}

// Coord locates a router inside the machine.
type Coord struct {
	Group   int
	Chassis int
	Blade   int
}

// String formats the coordinate as g<group>c<chassis>b<blade>.
func (c Coord) String() string {
	return fmt.Sprintf("g%dc%db%d", c.Group, c.Chassis, c.Blade)
}

// Link is a directed connection between two routers. Parallel physical tiles
// between the same pair of routers are collapsed into a single Link with a
// Width equal to the number of tiles; the network model scales bandwidth by
// Width.
type Link struct {
	ID    LinkID
	Src   RouterID
	Dst   RouterID
	Type  LinkType
	Width int
}

// Config describes the size and wiring of a Dragonfly system.
type Config struct {
	// Groups is the number of Dragonfly groups (>= 1).
	Groups int
	// ChassisPerGroup is the number of chassis in a group (6 on Aries).
	ChassisPerGroup int
	// BladesPerChassis is the number of blades (routers) per chassis (16 on Aries).
	BladesPerChassis int
	// NodesPerBlade is the number of compute nodes attached to each router (4 on Aries).
	NodesPerBlade int
	// GlobalLinksPerRouter is the number of optical ports per router used for
	// inter-group connections (up to 10 on Aries).
	GlobalLinksPerRouter int
	// IntraGroupLinkWidth is the number of tiles per intra-group (row) connection (3 on Aries).
	IntraGroupLinkWidth int
	// IntraChassisLinkWidth is the number of tiles per intra-chassis connection (1 on Aries).
	IntraChassisLinkWidth int
	// GlobalLinkWidth is the number of tiles aggregated per inter-group connection.
	GlobalLinkWidth int
}

// AriesConfig returns a full-size Aries group geometry (6 chassis x 16 blades
// x 4 nodes) with the requested number of groups.
func AriesConfig(groups int) Config {
	return Config{
		Groups:                groups,
		ChassisPerGroup:       6,
		BladesPerChassis:      16,
		NodesPerBlade:         4,
		GlobalLinksPerRouter:  10,
		IntraGroupLinkWidth:   3,
		IntraChassisLinkWidth: 1,
		GlobalLinkWidth:       2,
	}
}

// PizDaintLikeConfig returns a geometry sized like the Piz Daint allocation
// used in the paper's Figure 8 (six groups of full Aries geometry, enough for
// a 1024-node job spread over 257 routers).
func PizDaintLikeConfig() Config { return AriesConfig(6) }

// CoriLikeConfig returns a geometry sized like the Cori allocation used in the
// paper's Figure 9 (five groups, 64-node job over 33 routers).
func CoriLikeConfig() Config { return AriesConfig(5) }

// SmallConfig returns a reduced geometry convenient for unit tests: g groups,
// 2 chassis per group, 4 blades per chassis, 2 nodes per blade.
func SmallConfig(groups int) Config {
	return Config{
		Groups:                groups,
		ChassisPerGroup:       2,
		BladesPerChassis:      4,
		NodesPerBlade:         2,
		GlobalLinksPerRouter:  2,
		IntraGroupLinkWidth:   3,
		IntraChassisLinkWidth: 1,
		GlobalLinkWidth:       2,
	}
}

// Validate reports whether the configuration is well formed.
func (c Config) Validate() error {
	switch {
	case c.Groups < 1:
		return fmt.Errorf("topo: Groups must be >= 1, got %d", c.Groups)
	case c.ChassisPerGroup < 1:
		return fmt.Errorf("topo: ChassisPerGroup must be >= 1, got %d", c.ChassisPerGroup)
	case c.BladesPerChassis < 1:
		return fmt.Errorf("topo: BladesPerChassis must be >= 1, got %d", c.BladesPerChassis)
	case c.NodesPerBlade < 1:
		return fmt.Errorf("topo: NodesPerBlade must be >= 1, got %d", c.NodesPerBlade)
	case c.Groups > 1 && c.GlobalLinksPerRouter < 1:
		return fmt.Errorf("topo: GlobalLinksPerRouter must be >= 1 when Groups > 1")
	case c.IntraChassisLinkWidth < 1 || c.IntraGroupLinkWidth < 1 || c.GlobalLinkWidth < 1:
		return fmt.Errorf("topo: link widths must be >= 1")
	}
	if c.Groups > 1 {
		ports := c.RoutersPerGroup() * c.GlobalLinksPerRouter
		if ports < c.Groups-1 {
			return fmt.Errorf("topo: %d global ports per group cannot reach %d other groups",
				ports, c.Groups-1)
		}
	}
	return nil
}

// RoutersPerGroup returns the number of routers in one group.
func (c Config) RoutersPerGroup() int { return c.ChassisPerGroup * c.BladesPerChassis }

// Routers returns the total number of routers in the system.
func (c Config) Routers() int { return c.Groups * c.RoutersPerGroup() }

// Nodes returns the total number of compute nodes in the system.
func (c Config) Nodes() int { return c.Routers() * c.NodesPerBlade }

// Topology is the constructed Dragonfly graph.
type Topology struct {
	cfg Config

	places []place // router -> coordinate
	links  []Link

	// localDegree is the number of local links each router owns:
	// BladesPerChassis-1 intra-chassis plus ChassisPerGroup-1 row links.
	// They are numbered router by router from ID 0, so localLink computes
	// any same-group link ID from two coordinates, with no table to search.
	localDegree int

	// Adjacency in CSR (compressed sparse row) form: router r's outgoing
	// links occupy adjDst/adjLink[adjOff[r]:adjOff[r+1]], sorted by
	// destination router. Path construction never reads it — local links
	// are computed and global ones come from gates — so it serves only
	// cross-group LinkBetween, Neighbors, OutLinks, Degree and the revLink
	// build, at O(links) memory.
	adjOff  []int32
	adjDst  []RouterID
	adjLink []LinkID

	// revLink maps each link to the link in the opposite direction (or
	// InvalidLink). The fabric walks the reverse path once per packet;
	// precomputing it removes every adjacency lookup from that loop.
	revLink []LinkID

	// gates holds every global link with its endpoints, grouped by ordered
	// group pair and in wiring order within a pair; pairs[g1*Groups+g2]
	// locates the g1 -> g2 run. A sampled path reads its gateway's ID and
	// both endpoints from one entry.
	gates []gate
	pairs []gatePair

	// The sampler's other draws: one of the two 2-hop alternatives of a
	// local segment, a router of a group, and an intermediate group (one of
	// the Groups-2 groups other than the endpoints').
	drawTwo, drawRouter, drawVia draw
}

// place is a router's coordinate in int32s, half the size of a Coord: path
// construction reads two or more per segment.
type place struct {
	group, chassis, blade int32
}

func (p place) coord() Coord { return Coord{int(p.group), int(p.chassis), int(p.blade)} }

// gate is one global link as path construction needs it.
type gate struct {
	id       LinkID
	src, dst RouterID
}

// gatePair locates one ordered group pair's run of gates, gates[off :
// off+draw.n], with the draw that picks one of them uniformly.
type gatePair struct {
	off  int32
	draw draw
}

// New builds the topology described by cfg.
func New(cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{cfg: cfg, places: make([]place, 0, cfg.Routers())}
	for g := range cfg.Groups {
		for c := range cfg.ChassisPerGroup {
			for b := range cfg.BladesPerChassis {
				t.places = append(t.places, place{int32(g), int32(c), int32(b)})
			}
		}
	}
	t.buildLocalLinks()
	t.buildGlobalLinks()
	t.buildPathCaches()
	return t, nil
}

// buildPathCaches derives the lookup structures (CSR adjacency, reverse
// links, the gate table and the sampler's draws) from the link graph.
func (t *Topology) buildPathCaches() {
	n := t.cfg.Routers()
	// CSR: count degrees, prefix-sum into row offsets, fill, then sort each
	// row by destination so LinkBetween can binary-search it.
	t.adjOff = make([]int32, n+1)
	for _, l := range t.links {
		t.adjOff[int(l.Src)+1]++
	}
	for r := 0; r < n; r++ {
		t.adjOff[r+1] += t.adjOff[r]
	}
	t.adjDst = make([]RouterID, len(t.links))
	t.adjLink = make([]LinkID, len(t.links))
	fill := make([]int32, n)
	for _, l := range t.links {
		at := t.adjOff[l.Src] + fill[l.Src]
		fill[l.Src]++
		t.adjDst[at] = l.Dst
		t.adjLink[at] = l.ID
	}
	for r := 0; r < n; r++ {
		lo, hi := t.adjOff[r], t.adjOff[r+1]
		// Insertion sort: rows are short (bounded by the router degree) and
		// nearly sorted already, since local links are wired in dst order.
		for i := lo + 1; i < hi; i++ {
			d, id := t.adjDst[i], t.adjLink[i]
			j := i
			for j > lo && t.adjDst[j-1] > d {
				t.adjDst[j], t.adjLink[j] = t.adjDst[j-1], t.adjLink[j-1]
				j--
			}
			t.adjDst[j], t.adjLink[j] = d, id
		}
	}
	t.revLink = make([]LinkID, len(t.links))
	for i, l := range t.links {
		t.revLink[i] = t.LinkBetween(l.Dst, l.Src)
	}
	t.buildGates()
	t.drawTwo = newDraw(2)
	t.drawRouter = newDraw(t.cfg.RoutersPerGroup())
	if t.cfg.Groups > 2 {
		t.drawVia = newDraw(t.cfg.Groups - 2)
	}
}

// buildGates sorts the global links into gates by ordered group pair,
// keeping wiring order within a pair, and sizes each pair's draw. Every two
// groups are directly connected: Validate guarantees each group at least
// Groups-1 ports, so buildGlobalLinks gives every pair at least one port
// assignment. The sampler relies on it, so a pair without a link is a bug.
func (t *Topology) buildGates() {
	groups := t.cfg.Groups
	global := t.links[len(t.places)*t.localDegree:]
	pairOf := func(l Link) int {
		return int(t.places[l.Src].group)*groups + int(t.places[l.Dst].group)
	}
	next := make([]int32, groups*groups) // links per pair, then each pair's fill cursor
	for _, l := range global {
		next[pairOf(l)]++
	}
	t.pairs = make([]gatePair, groups*groups)
	var off int32
	for p, n := range next {
		if g1, g2 := p/groups, p%groups; g1 != g2 && n == 0 {
			panic(fmt.Sprintf("topo: groups %d and %d have no global link", g1, g2))
		}
		t.pairs[p].off = off
		if n > 0 {
			t.pairs[p].draw = newDraw(int(n))
		}
		next[p] = off
		off += n
	}
	t.gates = make([]gate, len(global))
	for _, l := range global {
		p := pairOf(l)
		t.gates[next[p]] = gate{id: l.ID, src: l.Src, dst: l.Dst}
		next[p]++
	}
}

// MustNew is like New but panics on configuration errors. It is intended for
// tests and examples with known-good configurations.
func MustNew(cfg Config) *Topology {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the configuration the topology was built from.
func (t *Topology) Config() Config { return t.cfg }

// NumRouters returns the number of routers.
func (t *Topology) NumRouters() int { return len(t.places) }

// NumNodes returns the number of compute nodes.
func (t *Topology) NumNodes() int { return t.cfg.Nodes() }

// NumLinks returns the number of directed router-to-router links.
func (t *Topology) NumLinks() int { return len(t.links) }

// Links returns the slice of all links. The caller must not modify it.
func (t *Topology) Links() []Link { return t.links }

// Link returns the link with the given id.
func (t *Topology) Link(id LinkID) Link { return t.links[id] }

// RouterAt returns the router at the given coordinate.
func (t *Topology) RouterAt(c Coord) RouterID {
	return RouterID(c.Group*t.cfg.RoutersPerGroup() +
		c.Chassis*t.cfg.BladesPerChassis + c.Blade)
}

// CoordOf returns the coordinate of router r.
func (t *Topology) CoordOf(r RouterID) Coord { return t.places[r].coord() }

// GroupOf returns the group of router r.
func (t *Topology) GroupOf(r RouterID) GroupID { return GroupID(t.places[r].group) }

// RouterOfNode returns the router (blade) a node is attached to.
func (t *Topology) RouterOfNode(n NodeID) RouterID {
	return RouterID(int(n) / t.cfg.NodesPerBlade)
}

// NodesOfRouter returns the node ids attached to router r.
func (t *Topology) NodesOfRouter(r RouterID) []NodeID {
	out := make([]NodeID, t.cfg.NodesPerBlade)
	base := int(r) * t.cfg.NodesPerBlade
	for i := range out {
		out[i] = NodeID(base + i)
	}
	return out
}

// GroupOfNode returns the group a node belongs to.
func (t *Topology) GroupOfNode(n NodeID) GroupID { return t.GroupOf(t.RouterOfNode(n)) }

// LinkBetween returns the link from src to dst, or InvalidLink if the two
// routers are not directly connected. Same-group pairs are answered by
// localLink's closed form; cross-group pairs binary-search src's CSR
// adjacency row, which is degree-bounded, so a handful of compares.
func (t *Topology) LinkBetween(src, dst RouterID) LinkID {
	ps, pd := t.places[src], t.places[dst]
	if ps.group == pd.group {
		return t.localLink(src, ps, pd)
	}
	lo, hi := t.adjOff[src], t.adjOff[src+1]
	for lo < hi {
		mid := (lo + hi) >> 1
		if t.adjDst[mid] < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < t.adjOff[src+1] && t.adjDst[lo] == dst {
		return t.adjLink[lo]
	}
	return InvalidLink
}

// Degree returns the number of outgoing links of router r.
func (t *Topology) Degree(r RouterID) int {
	return int(t.adjOff[r+1] - t.adjOff[r])
}

// ReverseLink returns the link running opposite to id (Dst -> Src), or
// InvalidLink when the reverse direction is not wired. It is a precomputed
// table: the fabric's response-path walk does one indexed load per hop
// instead of an adjacency lookup.
func (t *Topology) ReverseLink(id LinkID) LinkID { return t.revLink[id] }

// Neighbors returns the routers directly connected to r, in ascending router
// order (the CSR row order).
func (t *Topology) Neighbors(r RouterID) []RouterID {
	return append([]RouterID(nil), t.adjDst[t.adjOff[r]:t.adjOff[r+1]]...)
}

// OutLinks returns the links leaving router r, in the order of Neighbors. The
// caller must not modify it.
func (t *Topology) OutLinks(r RouterID) []LinkID { return t.adjLink[t.adjOff[r]:t.adjOff[r+1]] }

// AdjacencyBytes reports the memory held by the entries of the adjacency
// index: the CSR arrays, the reverse-link table and the link ID of every
// gate. Local links need no table (localLink computes them), so the total is
// O(links) on every geometry. The gates' endpoint columns and the router
// coordinates are path-construction caches and are not counted. It is the
// observable the machine-scale tooling (cmd/topoinfo, EXPERIMENTS.md's
// memory-budget table) tracks.
func (t *Topology) AdjacencyBytes() int {
	entries := len(t.adjOff) + len(t.adjDst) + len(t.adjLink) + len(t.revLink) + len(t.gates)
	return entries * 4
}

// GlobalLinks returns, in a new slice, the links connecting group g1
// directly to group g2, in wiring order.
func (t *Topology) GlobalLinks(g1, g2 GroupID) []LinkID {
	pr := t.pairs[int(g1)*t.cfg.Groups+int(g2)]
	ids := make([]LinkID, pr.draw.n)
	for i := range ids {
		ids[i] = t.gates[int(pr.off)+i].id
	}
	return ids
}

// localLink is the closed form of the local wiring: the ID of the link from
// src (at ps) to the router at pd in the same group, or InvalidLink when the
// two are not directly connected. Router r owns the localDegree IDs from
// r*localDegree: first its intra-chassis links in blade order, then its row
// links in chassis order, each order skipping r's own position.
// buildLocalLinks places every local link through this function, so the
// formula and the wiring cannot drift apart.
func (t *Topology) localLink(src RouterID, ps, pd place) LinkID {
	base := int(src) * t.localDegree
	switch {
	case ps.chassis == pd.chassis && ps.blade != pd.blade:
		return LinkID(base + skipSelf(pd.blade, ps.blade))
	case ps.blade == pd.blade && ps.chassis != pd.chassis:
		return LinkID(base + t.cfg.BladesPerChassis - 1 + skipSelf(pd.chassis, ps.chassis))
	}
	return InvalidLink
}

// skipSelf is i's position in the sequence 0, 1, ... with self left out.
// (self-i)>>31 is -1 exactly when i > self, so no branch is taken on the
// coordinates, which path sampling draws at random.
func skipSelf(i, self int32) int { return int(i + (self-i)>>31) }

// buildLocalLinks wires intra-chassis (all-to-all within a chassis) and
// intra-group "row" links (all-to-all among same blade position across the
// chassis of a group), each at the ID localLink assigns it.
func (t *Topology) buildLocalLinks() {
	cfg := t.cfg
	t.localDegree = cfg.BladesPerChassis - 1 + cfg.ChassisPerGroup - 1
	t.links = make([]Link, len(t.places)*t.localDegree)
	wire := func(src RouterID, ps, pd place, typ LinkType, width int) {
		id := t.localLink(src, ps, pd)
		t.links[id] = Link{ID: id, Src: src, Dst: t.RouterAt(pd.coord()), Type: typ, Width: width}
	}
	for r, ps := range t.places {
		src := RouterID(r)
		// Intra-chassis: connect to every other blade in the same chassis.
		for b := range int32(cfg.BladesPerChassis) {
			if b != ps.blade {
				wire(src, ps, place{ps.group, ps.chassis, b}, LinkIntraChassis, cfg.IntraChassisLinkWidth)
			}
		}
		// Intra-group rows: connect to the same blade position in every
		// other chassis of the group.
		for c := range int32(cfg.ChassisPerGroup) {
			if c != ps.chassis {
				wire(src, ps, place{ps.group, c, ps.blade}, LinkIntraGroup, cfg.IntraGroupLinkWidth)
			}
		}
	}
}

// buildGlobalLinks distributes the optical ports of each group's routers over
// the other groups, using the canonical consecutive-port assignment: the k-th
// link between groups g1 < g2 attaches to port index(g2 in g1's peer list)*q+k
// of g1 and port index(g1 in g2's peer list)*q+k of g2, where q is the number
// of links per group pair. Ports map to routers round-robin by port/h. Each
// assignment wires both directions.
func (t *Topology) buildGlobalLinks() {
	cfg := t.cfg
	if cfg.Groups < 2 {
		return
	}
	portsPerGroup := cfg.RoutersPerGroup() * cfg.GlobalLinksPerRouter
	q := portsPerGroup / (cfg.Groups - 1)
	if q < 1 {
		q = 1
	}
	routerOfPort := func(g, port int) RouterID {
		r := (port / cfg.GlobalLinksPerRouter) % cfg.RoutersPerGroup()
		return RouterID(g*cfg.RoutersPerGroup() + r)
	}
	peerIndex := func(g, peer int) int {
		// index of peer in g's sorted list of other groups
		if peer < g {
			return peer
		}
		return peer - 1
	}
	wire := func(src, dst RouterID) {
		id := LinkID(len(t.links))
		t.links = append(t.links, Link{ID: id, Src: src, Dst: dst, Type: LinkGlobal, Width: cfg.GlobalLinkWidth})
	}
	for g1 := 0; g1 < cfg.Groups; g1++ {
		for g2 := g1 + 1; g2 < cfg.Groups; g2++ {
			last := [2]RouterID{-1, -1}
			for k := 0; k < q; k++ {
				p1 := peerIndex(g1, g2)*q + k
				p2 := peerIndex(g2, g1)*q + k
				if p1 >= portsPerGroup || p2 >= portsPerGroup {
					continue
				}
				// Ports below portsPerGroup map to routers in port order, so
				// both routers are non-decreasing in k: an assignment that
				// joins an already-connected router pair repeats the one
				// before it, and collapses into that link (widths already
				// aggregate tiles).
				pair := [2]RouterID{routerOfPort(g1, p1), routerOfPort(g2, p2)}
				if pair == last {
					continue
				}
				last = pair
				wire(pair[0], pair[1])
				wire(pair[1], pair[0])
			}
		}
	}
}

// AllocationClass describes the topological distance between two nodes, in the
// terms used by the paper's Figure 3.
type AllocationClass uint8

const (
	// AllocSameNode means both endpoints are the same node.
	AllocSameNode AllocationClass = iota
	// AllocInterNodes means the two nodes share a blade (same router).
	AllocInterNodes
	// AllocInterBlades means the nodes sit on different blades of the same chassis.
	AllocInterBlades
	// AllocInterChassis means the nodes sit on different chassis of the same group.
	AllocInterChassis
	// AllocInterGroups means the nodes sit in different groups.
	AllocInterGroups
)

// String returns the paper's name for the allocation class.
func (a AllocationClass) String() string {
	switch a {
	case AllocSameNode:
		return "Same-Node"
	case AllocInterNodes:
		return "Inter-Nodes"
	case AllocInterBlades:
		return "Inter-Blades"
	case AllocInterChassis:
		return "Inter-Chassis"
	case AllocInterGroups:
		return "Inter-Groups"
	default:
		return fmt.Sprintf("AllocationClass(%d)", uint8(a))
	}
}

// Classify returns the allocation class of the pair (a, b).
func (t *Topology) Classify(a, b NodeID) AllocationClass {
	if a == b {
		return AllocSameNode
	}
	ra, rb := t.RouterOfNode(a), t.RouterOfNode(b)
	if ra == rb {
		return AllocInterNodes
	}
	pa, pb := t.places[ra], t.places[rb]
	if pa.group != pb.group {
		return AllocInterGroups
	}
	if pa.chassis != pb.chassis {
		return AllocInterChassis
	}
	return AllocInterBlades
}
