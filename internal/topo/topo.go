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

	coords []Coord // router -> coordinate
	links  []Link

	// localDegree is the number of local links each router owns:
	// BladesPerChassis-1 intra-chassis plus ChassisPerGroup-1 row links.
	// They are numbered router by router from ID 0, so localLink computes
	// any same-group link ID from two coordinates, with no table to search.
	localDegree int

	// Adjacency in CSR (compressed sparse row) form: router r's outgoing
	// links occupy adjDst/adjLink[adjOff[r]:adjOff[r+1]], sorted by
	// destination router. Path construction never reads it — local links
	// are computed and global ones come from globalLinks — so it serves only
	// cross-group LinkBetween, Neighbors, Degree and the revLink build, at
	// O(links) memory.
	adjOff  []int32
	adjDst  []RouterID
	adjLink []LinkID

	// revLink maps each link to the link in the opposite direction (or
	// InvalidLink). The fabric walks the reverse path once per packet;
	// precomputing it removes every adjacency lookup from that loop.
	revLink []LinkID

	// globalLinks[g1*Groups+g2] lists the links from a router of g1 to a
	// router of g2, in wiring order.
	globalLinks [][]LinkID

	// viaGroups[(gs*Groups)+gd] lists the intermediate groups usable for a
	// Valiant detour between gs and gd (connected to both, excluding the
	// endpoints). Precomputed so per-packet non-minimal sampling performs no
	// connectivity scan and no allocation.
	viaGroups [][]GroupID
}

// New builds the topology described by cfg.
func New(cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{
		cfg:         cfg,
		coords:      make([]Coord, cfg.Routers()),
		globalLinks: make([][]LinkID, cfg.Groups*cfg.Groups),
	}
	for r := 0; r < cfg.Routers(); r++ {
		t.coords[r] = t.coordOf(RouterID(r))
	}
	t.buildLocalLinks()
	t.buildGlobalLinks()
	t.buildPathCaches()
	return t, nil
}

// buildPathCaches derives the lookup structures (CSR adjacency, reverse
// links, Valiant intermediate-group candidates) from the link graph.
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
	t.viaGroups = make([][]GroupID, t.cfg.Groups*t.cfg.Groups)
	for gs := 0; gs < t.cfg.Groups; gs++ {
		for gd := 0; gd < t.cfg.Groups; gd++ {
			var candidates []GroupID
			for g := 0; g < t.cfg.Groups; g++ {
				gi := GroupID(g)
				if g == gs || g == gd {
					continue
				}
				if len(t.GlobalLinks(GroupID(gs), gi)) > 0 && len(t.GlobalLinks(gi, GroupID(gd))) > 0 {
					candidates = append(candidates, gi)
				}
			}
			t.viaGroups[gs*t.cfg.Groups+gd] = candidates
		}
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
func (t *Topology) NumRouters() int { return len(t.coords) }

// NumNodes returns the number of compute nodes.
func (t *Topology) NumNodes() int { return t.cfg.Nodes() }

// NumLinks returns the number of directed router-to-router links.
func (t *Topology) NumLinks() int { return len(t.links) }

// Links returns the slice of all links. The caller must not modify it.
func (t *Topology) Links() []Link { return t.links }

// Link returns the link with the given id.
func (t *Topology) Link(id LinkID) Link { return t.links[id] }

// coordOf converts a router index to its coordinate.
func (t *Topology) coordOf(r RouterID) Coord {
	perGroup := t.cfg.RoutersPerGroup()
	g := int(r) / perGroup
	rest := int(r) % perGroup
	return Coord{
		Group:   g,
		Chassis: rest / t.cfg.BladesPerChassis,
		Blade:   rest % t.cfg.BladesPerChassis,
	}
}

// RouterAt returns the router at the given coordinate.
func (t *Topology) RouterAt(c Coord) RouterID {
	return RouterID(c.Group*t.cfg.RoutersPerGroup() +
		c.Chassis*t.cfg.BladesPerChassis + c.Blade)
}

// CoordOf returns the coordinate of router r.
func (t *Topology) CoordOf(r RouterID) Coord { return t.coords[r] }

// GroupOf returns the group of router r.
func (t *Topology) GroupOf(r RouterID) GroupID { return GroupID(t.coords[r].Group) }

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
	cs, cd := t.coords[src], t.coords[dst]
	if cs.Group == cd.Group {
		return t.localLink(src, cs, cd)
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

// AdjacencyBytes reports the memory held by the entries of the adjacency
// structures: the CSR arrays, the reverse-link table and the group-pair
// global-link table. Local links need no table (localLink computes them), so
// the total is O(links) on every geometry. It is the observable the
// machine-scale tooling (cmd/topoinfo, EXPERIMENTS.md's memory-budget table)
// tracks.
func (t *Topology) AdjacencyBytes() int {
	entries := len(t.adjOff) + len(t.adjDst) + len(t.adjLink) + len(t.revLink)
	for _, pair := range t.globalLinks {
		entries += len(pair)
	}
	return entries * 4
}

// GlobalLinks returns the links connecting group g1 directly to group g2.
func (t *Topology) GlobalLinks(g1, g2 GroupID) []LinkID {
	return t.globalLinks[int(g1)*t.cfg.Groups+int(g2)]
}

// localLink is the closed form of the local wiring: the ID of the link from
// src (at coordinate cs) to the router at cd in the same group, or
// InvalidLink when the two are not directly connected. Router r owns the
// localDegree IDs from r*localDegree: first its intra-chassis links in blade
// order, then its row links in chassis order, each order skipping r's own
// position. buildLocalLinks places every local link through this function,
// so the formula and the wiring cannot drift apart.
func (t *Topology) localLink(src RouterID, cs, cd Coord) LinkID {
	base := int(src) * t.localDegree
	switch {
	case cs.Chassis == cd.Chassis && cs.Blade != cd.Blade:
		return LinkID(base + skipSelf(cd.Blade, cs.Blade))
	case cs.Blade == cd.Blade && cs.Chassis != cd.Chassis:
		return LinkID(base + t.cfg.BladesPerChassis - 1 + skipSelf(cd.Chassis, cs.Chassis))
	}
	return InvalidLink
}

// skipSelf is i's position in the sequence 0, 1, ... with self left out.
func skipSelf(i, self int) int {
	if i > self {
		return i - 1
	}
	return i
}

// buildLocalLinks wires intra-chassis (all-to-all within a chassis) and
// intra-group "row" links (all-to-all among same blade position across the
// chassis of a group), each at the ID localLink assigns it.
func (t *Topology) buildLocalLinks() {
	cfg := t.cfg
	t.localDegree = cfg.BladesPerChassis - 1 + cfg.ChassisPerGroup - 1
	t.links = make([]Link, len(t.coords)*t.localDegree)
	wire := func(src RouterID, cs, cd Coord, typ LinkType, width int) {
		id := t.localLink(src, cs, cd)
		t.links[id] = Link{ID: id, Src: src, Dst: t.RouterAt(cd), Type: typ, Width: width}
	}
	for r, cs := range t.coords {
		src := RouterID(r)
		// Intra-chassis: connect to every other blade in the same chassis.
		for b := 0; b < cfg.BladesPerChassis; b++ {
			if b != cs.Blade {
				wire(src, cs, Coord{cs.Group, cs.Chassis, b}, LinkIntraChassis, cfg.IntraChassisLinkWidth)
			}
		}
		// Intra-group rows: connect to the same blade position in every
		// other chassis of the group.
		for c := 0; c < cfg.ChassisPerGroup; c++ {
			if c != cs.Chassis {
				wire(src, cs, Coord{cs.Group, c, cs.Blade}, LinkIntraGroup, cfg.IntraGroupLinkWidth)
			}
		}
	}
}

// buildGlobalLinks distributes the optical ports of each group's routers over
// the other groups, using the canonical consecutive-port assignment: the k-th
// link between groups g1 < g2 attaches to port index(g2 in g1's peer list)*q+k
// of g1 and port index(g1 in g2's peer list)*q+k of g2, where q is the number
// of links per group pair. Ports map to routers round-robin by port/h.
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
	for g1 := 0; g1 < cfg.Groups; g1++ {
		for g2 := g1 + 1; g2 < cfg.Groups; g2++ {
			for k := 0; k < q; k++ {
				p1 := peerIndex(g1, g2)*q + k
				p2 := peerIndex(g2, g1)*q + k
				if p1 >= portsPerGroup || p2 >= portsPerGroup {
					continue
				}
				r1 := routerOfPort(g1, p1)
				r2 := routerOfPort(g2, p2)
				t.addGlobalLink(r1, r2, g1*cfg.Groups+g2)
				t.addGlobalLink(r2, r1, g2*cfg.Groups+g1)
			}
		}
	}
}

// addGlobalLink wires src -> dst into the group-pair list globalLinks[pair]
// unless an earlier port assignment already connected the two routers; such
// assignments collapse into the existing link (widths already aggregate
// tiles). Only a link of the same group pair can join src and dst, so that
// list is the whole search.
func (t *Topology) addGlobalLink(src, dst RouterID, pair int) {
	for _, id := range t.globalLinks[pair] {
		if t.links[id].Src == src && t.links[id].Dst == dst {
			return
		}
	}
	id := LinkID(len(t.links))
	t.links = append(t.links, Link{ID: id, Src: src, Dst: dst, Type: LinkGlobal, Width: t.cfg.GlobalLinkWidth})
	t.globalLinks[pair] = append(t.globalLinks[pair], id)
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
	ca, cb := t.coords[ra], t.coords[rb]
	if ca.Group != cb.Group {
		return AllocInterGroups
	}
	if ca.Chassis != cb.Chassis {
		return AllocInterChassis
	}
	return AllocInterBlades
}
