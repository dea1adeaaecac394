package network

import (
	"fmt"
	"sort"

	"dragonfly/internal/counters"
	"dragonfly/internal/topo"
)

// LinkUsage describes the accumulated traffic of one link.
type LinkUsage struct {
	// Link is the topology link.
	Link topo.Link
	// Tile holds the accumulated tile counters.
	Tile counters.Tile
	// Utilization is the fraction of the observation window the link spent
	// serializing flits (0 when the window is empty).
	Utilization float64
}

// TierUsage aggregates traffic per link tier.
type TierUsage struct {
	// Type is the link tier.
	Type topo.LinkType
	// Links is the number of links of this tier.
	Links int
	// Flits is the total number of flits forwarded by the tier.
	Flits uint64
	// StalledCycles is the total back-pressure stall time of the tier.
	StalledCycles uint64
	// MeanUtilization and MaxUtilization summarize the per-link utilizations.
	MeanUtilization float64
	MaxUtilization  float64
}

// UtilizationReport is a snapshot of how the fabric's links have been used
// since the simulation started (or since the counters passed as a baseline).
type UtilizationReport struct {
	// WindowCycles is the observation window used to compute utilizations.
	WindowCycles uint64
	// Tiers holds one entry per link tier, ordered intra-chassis, intra-group,
	// global.
	Tiers []TierUsage
	// Hottest lists the most utilized links, most loaded first.
	Hottest []LinkUsage
}

// Report builds a utilization report over the window [0, now]. topN bounds the
// number of hottest links listed (0 disables the list).
func (f *Fabric) Report(topN int) UtilizationReport {
	window := uint64(f.engine.Now())
	rep := UtilizationReport{WindowCycles: window}

	perTier := map[topo.LinkType]*TierUsage{}
	var all []LinkUsage
	for _, l := range f.topo.Links() {
		tile := f.tiles[l.ID]
		u := tile.Utilization(window)
		all = append(all, LinkUsage{Link: l, Tile: tile, Utilization: u})
		tu, ok := perTier[l.Type]
		if !ok {
			tu = &TierUsage{Type: l.Type}
			perTier[l.Type] = tu
		}
		tu.Links++
		tu.Flits += tile.FlitsTraversed
		tu.StalledCycles += tile.StalledCycles
		tu.MeanUtilization += u
		if u > tu.MaxUtilization {
			tu.MaxUtilization = u
		}
	}
	for _, typ := range []topo.LinkType{topo.LinkIntraChassis, topo.LinkIntraGroup, topo.LinkGlobal} {
		tu, ok := perTier[typ]
		if !ok {
			continue
		}
		if tu.Links > 0 {
			tu.MeanUtilization /= float64(tu.Links)
		}
		rep.Tiers = append(rep.Tiers, *tu)
	}
	if topN > 0 {
		sort.Slice(all, func(i, j int) bool {
			if all[i].Utilization != all[j].Utilization {
				return all[i].Utilization > all[j].Utilization
			}
			return all[i].Link.ID < all[j].Link.ID
		})
		if topN > len(all) {
			topN = len(all)
		}
		rep.Hottest = all[:topN]
	}
	return rep
}

// String renders the report for logs and CLI output.
func (r UtilizationReport) String() string {
	out := fmt.Sprintf("link utilization over %d cycles:\n", r.WindowCycles)
	for _, t := range r.Tiers {
		out += fmt.Sprintf("  %-14s links=%-5d flits=%-12d stalls=%-12d mean=%.3f max=%.3f\n",
			t.Type, t.Links, t.Flits, t.StalledCycles, t.MeanUtilization, t.MaxUtilization)
	}
	for i, h := range r.Hottest {
		out += fmt.Sprintf("  hot[%d] link %d (%s %d->%d) util=%.3f flits=%d\n",
			i, h.Link.ID, h.Link.Type, h.Link.Src, h.Link.Dst, h.Utilization, h.Tile.FlitsTraversed)
	}
	return out
}
