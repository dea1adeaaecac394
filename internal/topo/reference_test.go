package topo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// This file keeps the link-by-link path builders the sampler replaced, as the
// oracle the sampler is checked against. They build a path from coordinates,
// LinkBetween, Link and GlobalLinks, choose with rng.Intn and scan for the
// Valiant intermediate groups, so they share no table or draw with the
// sampler.

// refIntraGroupPath appends one path between two routers of the same group
// to p, choosing randomly between the two 2-hop alternatives when they are not
// directly connected. It panics if the routers are in different groups.
func (t *Topology) refIntraGroupPath(p Path, src, dst RouterID, rng *rand.Rand) Path {
	if src == dst {
		return p
	}
	cs, cd := t.CoordOf(src), t.CoordOf(dst)
	if cs.Group != cd.Group {
		panic(fmt.Sprintf("topo: intraGroupPath called across groups %d and %d", cs.Group, cd.Group))
	}
	if id := t.LinkBetween(src, dst); id != InvalidLink {
		return append(p, id)
	}
	// Not directly connected, so the two routers differ in both chassis and
	// blade, and both 2-hop alternatives are wired: chassis-first (to dst's
	// blade in src's chassis, then along the row) or row-first (to src's
	// blade in dst's chassis, then within that chassis).
	via := Coord{cs.Group, cs.Chassis, cd.Blade}
	if rng != nil && rng.Intn(2) == 1 {
		via = Coord{cs.Group, cd.Chassis, cs.Blade}
	}
	return append(p, t.LinkBetween(src, t.RouterAt(via)), t.LinkBetween(t.RouterAt(via), dst))
}

// refMinimalPath appends one minimal path from src to dst to p. For
// inter-group pairs the global link is chosen uniformly at random among the
// links connecting the two groups; local segments choose randomly among
// equal-length alternatives. rng may be nil for a deterministic
// (first-alternative) choice.
func (t *Topology) refMinimalPath(p Path, src, dst RouterID, rng *rand.Rand) Path {
	if src == dst {
		return p
	}
	gs, gd := t.GroupOf(src), t.GroupOf(dst)
	if gs == gd {
		return t.refIntraGroupPath(p, src, dst, rng)
	}
	links := t.GlobalLinks(gs, gd)
	if len(links) == 0 {
		// No direct group-to-group connection: fall back to a Valiant path
		// through an intermediate group that connects to both.
		return t.refThroughIntermediateGroup(p, src, dst, rng)
	}
	var gl LinkID
	if rng != nil {
		gl = links[rng.Intn(len(links))]
	} else {
		gl = links[0]
	}
	l := t.Link(gl)
	p = t.refIntraGroupPath(p, src, l.Src, rng)
	p = append(p, gl)
	return t.refIntraGroupPath(p, l.Dst, dst, rng)
}

// refViaGroups lists the intermediate groups usable for a Valiant detour
// between gs and gd: connected to both, excluding the endpoints, ascending.
func (t *Topology) refViaGroups(gs, gd GroupID) []GroupID {
	var candidates []GroupID
	for g := 0; g < t.cfg.Groups; g++ {
		gi := GroupID(g)
		if gi == gs || gi == gd {
			continue
		}
		if len(t.GlobalLinks(gs, gi)) > 0 && len(t.GlobalLinks(gi, gd)) > 0 {
			candidates = append(candidates, gi)
		}
	}
	return candidates
}

// refThroughIntermediateGroup appends a path src -> (router in group gi) ->
// dst where gi is a randomly chosen group different from both endpoints'
// groups and connected to both. It is used both for Valiant non-minimal
// routing and as a fallback when two groups have no direct link. When no
// usable intermediate group and no direct link exists, p is returned
// unchanged (the caller treats the pair as unreachable).
func (t *Topology) refThroughIntermediateGroup(p Path, src, dst RouterID, rng *rand.Rand) Path {
	gs, gd := t.GroupOf(src), t.GroupOf(dst)
	candidates := t.refViaGroups(gs, gd)
	if len(candidates) == 0 {
		// No usable intermediate group; as a last resort return a direct
		// minimal path if one exists.
		if links := t.GlobalLinks(gs, gd); len(links) > 0 {
			return t.refMinimalPath(p, src, dst, rng)
		}
		return p
	}
	var gi GroupID
	if rng != nil {
		gi = candidates[rng.Intn(len(candidates))]
	} else {
		gi = candidates[0]
	}
	// Enter the intermediate group through one of its inbound global links and
	// leave through one of its outbound links towards the destination group.
	in := t.GlobalLinks(gs, gi)
	out := t.GlobalLinks(gi, gd)
	var inL, outL LinkID
	if rng != nil {
		inL, outL = in[rng.Intn(len(in))], out[rng.Intn(len(out))]
	} else {
		inL, outL = in[0], out[0]
	}
	li, lo := t.Link(inL), t.Link(outL)
	p = t.refIntraGroupPath(p, src, li.Src, rng)
	p = append(p, inL)
	p = t.refIntraGroupPath(p, li.Dst, lo.Src, rng)
	p = append(p, outL)
	return t.refIntraGroupPath(p, lo.Dst, dst, rng)
}

// refNonMinimalPath appends one Valiant-style non-minimal path from src to
// dst to p. For inter-group pairs the path traverses a random intermediate
// group; for intra-group pairs it traverses a random intermediate router of
// the same group. rng may be nil for a deterministic choice.
func (t *Topology) refNonMinimalPath(p Path, src, dst RouterID, rng *rand.Rand) Path {
	if src == dst {
		return p
	}
	gs, gd := t.GroupOf(src), t.GroupOf(dst)
	if gs != gd && t.cfg.Groups > 2 {
		if q := t.refThroughIntermediateGroup(p, src, dst, rng); len(q) > len(p) {
			return q
		}
	}
	// Intra-group (or two-group systems): detour through an intermediate
	// router of the source group.
	perGroup := t.cfg.RoutersPerGroup()
	base := int(gs) * perGroup
	var via RouterID
	for attempt := 0; attempt < 8; attempt++ {
		idx := 0
		if rng != nil {
			idx = rng.Intn(perGroup)
		} else {
			idx = attempt
		}
		via = RouterID(base + idx%perGroup)
		if via != src && via != dst {
			break
		}
	}
	if via == src || via == dst {
		return t.refMinimalPath(p, src, dst, rng)
	}
	p = t.refIntraGroupPath(p, src, via, rng)
	if gs == gd {
		return t.refIntraGroupPath(p, via, dst, rng)
	}
	return t.refMinimalPath(p, via, dst, rng)
}

// sameCandidate reports how the sampler's candidate c differs from the
// reference path want, or "" when it holds the same links and its per-tier
// counts match the links' types.
func (t *Topology) sameCandidate(c *Candidate, want Path) string {
	if !slices.Equal(c.Path(), want) {
		return fmt.Sprintf("links %v, reference %v", c.Path(), want)
	}
	var tiers [NumLinkTypes]uint8
	for _, id := range want {
		tiers[t.Link(id).Type]++
	}
	if c.Tiers() != tiers {
		return fmt.Sprintf("tier counts %v, link types give %v", c.Tiers(), tiers)
	}
	return ""
}

// checkSampler samples one minimal and one non-minimal candidate from src to
// dst, each from a fresh rng seeded with seed (or with none when withRNG is
// false), and fails unless every candidate matches the reference builders and
// leaves its rng where the reference leaves its own.
func checkSampler(tb testing.TB, tp *Topology, src, dst RouterID, seed int64, withRNG bool) {
	tb.Helper()
	rngs := func() (*rand.Rand, *rand.Rand) {
		if !withRNG {
			return nil, nil
		}
		return rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	}
	var c Candidate
	for _, kind := range []struct {
		name   string
		sample func(*Candidate, RouterID, RouterID, *rand.Rand)
		ref    func(Path, RouterID, RouterID, *rand.Rand) Path
	}{
		{"minimal", tp.SampleMinimal, tp.refMinimalPath},
		{"non-minimal", tp.SampleNonMinimal, tp.refNonMinimalPath},
	} {
		got, ref := rngs()
		kind.sample(&c, src, dst, got)
		want := kind.ref(nil, src, dst, ref)
		if diff := tp.sameCandidate(&c, want); diff != "" {
			tb.Fatalf("%+v: %s %d->%d (seed %d, rng %v): %s", tp.Config(), kind.name, src, dst, seed, withRNG, diff)
		}
		if withRNG && got.Int63() != ref.Int63() {
			tb.Fatalf("%+v: %s %d->%d (seed %d): the sampler left its rng at another position than the reference",
				tp.Config(), kind.name, src, dst, seed)
		}
	}
}

// randomConfig draws a small but varied Dragonfly shape: group counts,
// chassis/blade layouts and port counts all vary, including degenerate
// single-dimension shapes (one chassis, one blade row).
func randomConfig(rng *rand.Rand) Config {
	for {
		cfg := Config{
			Groups:                1 + rng.Intn(6),
			ChassisPerGroup:       1 + rng.Intn(4),
			BladesPerChassis:      1 + rng.Intn(6),
			NodesPerBlade:         1 + rng.Intn(3),
			GlobalLinksPerRouter:  1 + rng.Intn(4),
			IntraGroupLinkWidth:   1 + rng.Intn(3),
			IntraChassisLinkWidth: 1 + rng.Intn(2),
			GlobalLinkWidth:       1 + rng.Intn(3),
		}
		if cfg.Validate() == nil {
			return cfg
		}
	}
}

// TestSamplerMatchesReference is the sampler's property test: on random
// geometries and on the named ones (the geometry ladder up to Daint, one
// chassis, one blade, collapsing ports), minimal and non-minimal candidates
// equal the reference builders' paths, with and without an rng, carry
// per-tier counts that match their links' types, and leave the rng where the
// reference leaves it.
func TestSamplerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var geoms []Config
	for range 40 {
		geoms = append(geoms, randomConfig(rng))
	}
	for _, cfg := range adjacencyGeometries() {
		geoms = append(geoms, cfg)
	}
	shapes := map[string]bool{}
	for _, cfg := range geoms {
		tp := MustNew(cfg)
		for trial := 0; trial < 150; trial++ {
			src := RouterID(rng.Intn(tp.NumRouters()))
			dst := RouterID(rng.Intn(tp.NumRouters()))
			seed := rng.Int63()
			checkSampler(t, tp, src, dst, seed, true)
			checkSampler(t, tp, src, dst, seed, false)
			cs, cd := tp.CoordOf(src), tp.CoordOf(dst)
			switch {
			case cs.Group != cd.Group && cfg.Groups > 2:
				shapes["valiant"] = true
			case cs.Group != cd.Group:
				shapes["two-group detour"] = true
			case cs.Chassis != cd.Chassis && cs.Blade != cd.Blade:
				shapes["two-hop local"] = true
			}
		}
	}
	if len(shapes) != 3 {
		t.Fatalf("weak coverage: only %v met", shapes)
	}
}

// TestEveryGroupPairConnected pins what the sampler relies on: in every valid
// geometry, every two groups are joined by a global link, so the Valiant
// intermediate groups of a pair are all the other groups, as refViaGroups
// finds by scanning.
func TestEveryGroupPairConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for range 200 {
		cfg := randomConfig(rng)
		cfg.GlobalLinksPerRouter = 1 // the fewest ports: one link per pair where Validate allows it
		if cfg.Validate() != nil {
			continue
		}
		tp := MustNew(cfg)
		for gs := range cfg.Groups {
			for gd := range cfg.Groups {
				if gs != gd && len(tp.GlobalLinks(GroupID(gs), GroupID(gd))) == 0 {
					t.Fatalf("%+v: groups %d and %d have no global link", cfg, gs, gd)
				}
				if via := tp.refViaGroups(GroupID(gs), GroupID(gd)); gs != gd && len(via) != max(cfg.Groups-2, 0) {
					t.Fatalf("%+v: groups %d and %d have intermediate groups %v", cfg, gs, gd, via)
				}
			}
		}
	}
}
