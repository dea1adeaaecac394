package topo

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// adjacencyGeometries are the shapes the link lookups are cross-checked on:
// the facade's geometry ladder (dragonfly.GeometryLadder: small, medium,
// large, daint), SmallConfig at every group count up to 5, degenerate
// single-dimension layouts, and a few-group layout whose global port
// assignments collapse onto already-connected router pairs.
func adjacencyGeometries() map[string]Config {
	medium := SmallConfig(6)
	medium.BladesPerChassis = 8
	medium.GlobalLinksPerRouter = 4
	geoms := map[string]Config{
		"ladder/small":  SmallConfig(4),
		"ladder/medium": medium,
		"ladder/large":  AriesConfig(6),
		"ladder/daint":  AriesConfig(14),
		"one-chassis": {Groups: 3, ChassisPerGroup: 1, BladesPerChassis: 4, NodesPerBlade: 1,
			GlobalLinksPerRouter: 2, IntraGroupLinkWidth: 1, IntraChassisLinkWidth: 1, GlobalLinkWidth: 1},
		"one-blade": {Groups: 2, ChassisPerGroup: 3, BladesPerChassis: 1, NodesPerBlade: 2,
			GlobalLinksPerRouter: 2, IntraGroupLinkWidth: 2, IntraChassisLinkWidth: 1, GlobalLinkWidth: 1},
		"collapsing": collapsingConfig,
	}
	for g := 1; g <= 5; g++ {
		geoms[fmt.Sprintf("small-%d", g)] = SmallConfig(g)
	}
	return geoms
}

// collapsingConfig has 4 global ports per group and 2 peer groups, so each
// group pair gets q = 2 port assignments. Both land on ports 0-1 (or 2-3) of
// a group, which belong to one router: the second assignment of every pair
// joins an already-connected router pair and must collapse into the first.
var collapsingConfig = Config{Groups: 3, ChassisPerGroup: 1, BladesPerChassis: 2, NodesPerBlade: 1,
	GlobalLinksPerRouter: 2, IntraGroupLinkWidth: 1, IntraChassisLinkWidth: 1, GlobalLinkWidth: 1}

// TestLinkBetweenMatchesLinkScan is the closed form's property test. A
// brute-force scan of Links() gives the ground truth; LinkBetween must agree
// with it for every ordered router pair (InvalidLink where the scan finds no
// link), and GlobalLinks for every ordered group pair, in wiring order.
func TestLinkBetweenMatchesLinkScan(t *testing.T) {
	for name, cfg := range adjacencyGeometries() {
		tp := MustNew(cfg)
		n, groups := tp.NumRouters(), cfg.Groups
		want := make([]LinkID, n*n)
		for i := range want {
			want[i] = InvalidLink
		}
		wantGlobal := make([][]LinkID, groups*groups)
		for i, l := range tp.Links() {
			if l.ID != LinkID(i) {
				t.Fatalf("%s: Links()[%d] has ID %d", name, i, l.ID)
			}
			k := int(l.Src)*n + int(l.Dst)
			if want[k] != InvalidLink {
				t.Fatalf("%s: duplicate links %d and %d for pair (%d,%d)", name, want[k], l.ID, l.Src, l.Dst)
			}
			want[k] = l.ID
			gs, gd := tp.GroupOf(l.Src), tp.GroupOf(l.Dst)
			if (l.Type == LinkGlobal) != (gs != gd) {
				t.Fatalf("%s: link %d of type %v joins groups %d and %d", name, l.ID, l.Type, gs, gd)
			}
			if l.Type == LinkGlobal {
				wantGlobal[int(gs)*groups+int(gd)] = append(wantGlobal[int(gs)*groups+int(gd)], l.ID)
			}
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if got := tp.LinkBetween(RouterID(src), RouterID(dst)); got != want[src*n+dst] {
					t.Fatalf("%s: LinkBetween(%d,%d) = %d, want %d", name, src, dst, got, want[src*n+dst])
				}
			}
		}
		for g1 := 0; g1 < groups; g1++ {
			for g2 := 0; g2 < groups; g2++ {
				if got := tp.GlobalLinks(GroupID(g1), GroupID(g2)); !slices.Equal(got, wantGlobal[g1*groups+g2]) {
					t.Fatalf("%s: GlobalLinks(%d,%d) = %v, want %v", name, g1, g2, got, wantGlobal[g1*groups+g2])
				}
			}
		}
	}
}

// TestGlobalPortsCollapse pins that collapsingConfig really exercises the
// collapse: every group pair received two port assignments but has one link.
func TestGlobalPortsCollapse(t *testing.T) {
	tp := MustNew(collapsingConfig)
	for g1 := 0; g1 < collapsingConfig.Groups; g1++ {
		for g2 := 0; g2 < collapsingConfig.Groups; g2++ {
			if g1 == g2 {
				continue
			}
			if got := len(tp.GlobalLinks(GroupID(g1), GroupID(g2))); got != 1 {
				t.Fatalf("GlobalLinks(%d,%d) has %d links, want the 2 port assignments collapsed into 1", g1, g2, got)
			}
		}
	}
}

// TestCSRNeighborsSortedAndComplete pins the Neighbors contract of the CSR
// layout: ascending router order, no duplicates, degree matching the link
// list.
func TestCSRNeighborsSortedAndComplete(t *testing.T) {
	for name, cfg := range adjacencyGeometries() {
		tp := MustNew(cfg)
		degree := make(map[RouterID]int)
		for _, l := range tp.Links() {
			degree[l.Src]++
		}
		for r := 0; r < tp.NumRouters(); r++ {
			nb := tp.Neighbors(RouterID(r))
			if !sort.SliceIsSorted(nb, func(i, j int) bool { return nb[i] < nb[j] }) {
				t.Fatalf("%s: Neighbors(%d) not sorted: %v", name, r, nb)
			}
			for i := 1; i < len(nb); i++ {
				if nb[i] == nb[i-1] {
					t.Fatalf("%s: Neighbors(%d) has duplicate %d", name, r, nb[i])
				}
			}
			if len(nb) != degree[RouterID(r)] || len(nb) != tp.Degree(RouterID(r)) {
				t.Fatalf("%s: router %d degree mismatch: Neighbors=%d Degree()=%d links=%d",
					name, r, len(nb), tp.Degree(RouterID(r)), degree[RouterID(r)])
			}
		}
	}
}

// TestCSRMemoryScalesWithLinks pins AdjacencyBytes on every geometry: the
// CSR rows, the reverse-link table and the group-pair global table, all
// O(links). Local links are computed, so no geometry holds a |R|² matrix; on
// a full Aries 14-group system (1344 routers) one would be an order of
// magnitude larger.
func TestCSRMemoryScalesWithLinks(t *testing.T) {
	for name, cfg := range adjacencyGeometries() {
		tp := MustNew(cfg)
		global := 0
		for _, l := range tp.Links() {
			if l.Type == LinkGlobal {
				global++
			}
		}
		// offsets (n+1), dst, link and reverse-link arrays and the global
		// link table, 4 bytes per entry.
		want := (tp.NumRouters()+1)*4 + tp.NumLinks()*12 + global*4
		if got := tp.AdjacencyBytes(); got != want {
			t.Fatalf("%s: AdjacencyBytes = %d, want %d", name, got, want)
		}
	}
	tp := MustNew(AriesConfig(14))
	if got, dense := tp.AdjacencyBytes(), tp.NumRouters()*tp.NumRouters()*4; got*10 > dense {
		t.Fatalf("adjacency (%d B) is not an order of magnitude under a dense matrix (%d B)", got, dense)
	}
}

// TestReverseLinkTable pins ReverseLink against LinkBetween on a small
// geometry and on the Daint rung.
func TestReverseLinkTable(t *testing.T) {
	for _, cfg := range []Config{SmallConfig(4), AriesConfig(14)} {
		tp := MustNew(cfg)
		for _, l := range tp.Links() {
			if got, want := tp.ReverseLink(l.ID), tp.LinkBetween(l.Dst, l.Src); got != want {
				t.Fatalf("%+v: ReverseLink(%d) = %d, want %d", cfg, l.ID, got, want)
			}
		}
	}
}
