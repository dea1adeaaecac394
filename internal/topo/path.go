package topo

import (
	"fmt"
	"math/rand"
)

// Path is an ordered sequence of links from a source router to a destination
// router. An empty path means source and destination are the same router.
type Path []LinkID

// Hops returns the number of router-to-router hops in the path.
func (p Path) Hops() int { return len(p) }

// MaxMinimalHops is the maximum length of a minimal path on a Dragonfly
// (local, global, local within source and destination group: up to 2+1+2).
const MaxMinimalHops = 5

// MaxNonMinimalHops is the maximum length of a Valiant-routed non-minimal path
// (two concatenated minimal segments via an intermediate group).
const MaxNonMinimalHops = 10

// Candidate is one sampled path in fixed storage: its links and its hop count
// on each link tier. Path sampling runs once per candidate per simulated
// packet, so a candidate is filled in place, with no slice to grow, and the
// router prices its fixed cost from the tier counts without reading a link.
// The zero value is an empty path.
type Candidate struct {
	links [MaxNonMinimalHops]LinkID
	n     uint8
	tiers [NumLinkTypes]uint8
}

// Path returns the candidate's links. The result aliases c: it is valid
// until c is sampled again.
func (c *Candidate) Path() Path { return c.links[:c.n] }

// Hops returns the number of hops of the candidate.
func (c *Candidate) Hops() int { return int(c.n) }

// Tiers returns the candidate's hop count on each link tier, indexed by
// LinkType.
func (c *Candidate) Tiers() [NumLinkTypes]uint8 { return c.tiers }

func (c *Candidate) add(id LinkID, tier LinkType) {
	c.links[c.n] = id
	c.n++
	c.tiers[tier]++
}

// SampleMinimal fills c with one minimal path from src to dst. For inter-group
// pairs the gateway global link is chosen uniformly at random among the links
// connecting the two groups; a local segment between routers that are not
// directly connected chooses randomly between its two 2-hop alternatives.
// rng may be nil for a deterministic (first-alternative) choice. Each random
// choice takes from rng exactly what rng.Intn would, in a fixed order, so the
// simulated stream does not depend on how the path is built.
func (t *Topology) SampleMinimal(c *Candidate, src, dst RouterID, rng *rand.Rand) {
	c.n, c.tiers = 0, [NumLinkTypes]uint8{}
	t.minimal(c, src, t.places[src], dst, t.places[dst], rng)
}

// SampleNonMinimal fills c with one Valiant-style non-minimal path from src
// to dst. With more than two groups an inter-group path traverses a random
// intermediate group, entering and leaving it through random gateways; other
// pairs detour through a random router of the source group that is neither
// endpoint, and fall back to a minimal path after eight draws that hit one.
// rng may be nil for a deterministic choice; draws are made as in
// SampleMinimal.
func (t *Topology) SampleNonMinimal(c *Candidate, src, dst RouterID, rng *rand.Rand) {
	c.n, c.tiers = 0, [NumLinkTypes]uint8{}
	if src == dst {
		return
	}
	ps, pd := t.places[src], t.places[dst]
	if ps.group != pd.group && t.cfg.Groups > 2 {
		t.valiant(c, src, ps, dst, pd, rng)
		return
	}
	first := src - RouterID(int(ps.chassis)*t.cfg.BladesPerChassis+int(ps.blade)) // the group's router 0
	var via RouterID
	for attempt := 0; attempt < 8; attempt++ {
		var idx int
		if rng != nil {
			idx = t.drawRouter.from(rng)
		} else {
			idx = attempt % t.cfg.RoutersPerGroup()
		}
		via = first + RouterID(idx)
		if via != src && via != dst {
			break
		}
	}
	if via == src || via == dst {
		t.minimal(c, src, ps, dst, pd, rng)
		return
	}
	pv := t.places[via]
	t.local(c, src, ps, via, pv, rng)
	t.minimal(c, via, pv, dst, pd, rng)
}

// minimal appends a minimal path from a to b: a local segment within one
// group, or local-gateway-local across two.
func (t *Topology) minimal(c *Candidate, a RouterID, pa place, b RouterID, pb place, rng *rand.Rand) {
	if pa.group == pb.group {
		t.local(c, a, pa, b, pb, rng)
		return
	}
	g := t.pickGate(pa.group, pb.group, rng)
	t.local(c, a, pa, g.src, t.places[g.src], rng)
	c.add(g.id, LinkGlobal)
	t.local(c, g.dst, t.places[g.dst], b, pb, rng)
}

// valiant appends a path from a to b through an intermediate group drawn
// among the groups other than both endpoints'. Every two groups are directly
// connected (see buildGates), so each of them qualifies.
func (t *Topology) valiant(c *Candidate, a RouterID, pa place, b RouterID, pb place, rng *rand.Rand) {
	var via int32
	if rng != nil {
		via = int32(t.drawVia.from(rng))
	}
	// via indexes the other groups in ascending order: step over the
	// endpoints' groups.
	if via >= min(pa.group, pb.group) {
		via++
	}
	if via >= max(pa.group, pb.group) {
		via++
	}
	in := t.pickGate(pa.group, via, rng)
	out := t.pickGate(via, pb.group, rng)
	t.local(c, a, pa, in.src, t.places[in.src], rng)
	c.add(in.id, LinkGlobal)
	t.local(c, in.dst, t.places[in.dst], out.src, t.places[out.src], rng)
	c.add(out.id, LinkGlobal)
	t.local(c, out.dst, t.places[out.dst], b, pb, rng)
}

// pickGate returns a gateway from group g1 to group g2: drawn uniformly, or
// the first one in wiring order when rng is nil.
func (t *Topology) pickGate(g1, g2 int32, rng *rand.Rand) *gate {
	pr := &t.pairs[int(g1)*t.cfg.Groups+int(g2)]
	i := int(pr.off)
	if rng != nil {
		i += pr.draw.from(rng)
	}
	return &t.gates[i]
}

// local appends the path between two routers of one group: nothing for the
// same router, the direct link, or one of the two 2-hop alternatives.
func (t *Topology) local(c *Candidate, a RouterID, pa place, b RouterID, pb place, rng *rand.Rand) {
	switch {
	case a == b:
	case pa.chassis == pb.chassis:
		c.add(t.localLink(a, pa, pb), LinkIntraChassis)
	case pa.blade == pb.blade:
		c.add(t.localLink(a, pa, pb), LinkIntraGroup)
	default:
		// Not directly connected, so the two routers differ in both chassis
		// and blade, and both 2-hop alternatives are wired: chassis-first
		// (to b's blade in a's chassis, then along the row) or row-first
		// (to a's blade in b's chassis, then within that chassis). Either
		// crosses one link of each local tier. In localLink's numbering the
		// first hop leaves a by its port towards b's blade (chassis-first)
		// or b's chassis (row-first); the intermediate router, bladeStep or
		// chassisStep routers from a, leaves by its port towards the other.
		// The draw is a fair coin, so the choice is made by masking, not by
		// a branch that would be mispredicted half the time.
		toBlade := skipSelf(pb.blade, pa.blade)
		toChassis := t.cfg.BladesPerChassis - 1 + skipSelf(pb.chassis, pa.chassis)
		bladeStep := int(pb.blade - pa.blade)
		chassisStep := int(pb.chassis-pa.chassis) * t.cfg.BladesPerChassis
		var rowFirst int
		if rng != nil {
			rowFirst = t.drawTwo.from(rng)
		}
		base := int(a) * t.localDegree
		c.links[c.n] = LinkID(base + choose(rowFirst, toBlade, toChassis))
		c.links[c.n+1] = LinkID(base + choose(rowFirst, bladeStep, chassisStep)*t.localDegree +
			choose(rowFirst, toChassis, toBlade))
		c.n += 2
		c.tiers[LinkIntraChassis]++
		c.tiers[LinkIntraGroup]++
	}
}

// choose returns x when k is 0 and y when k is 1, by masking.
func choose(k, x, y int) int { return x ^ (x^y)&-k }

// MinimalPath returns, in a new slice, one minimal path from src to dst
// sampled as SampleMinimal samples it.
func (t *Topology) MinimalPath(src, dst RouterID, rng *rand.Rand) Path {
	var c Candidate
	t.SampleMinimal(&c, src, dst, rng)
	return append(Path(nil), c.Path()...)
}

// MinimalHops returns the number of hops of a minimal path between the two
// routers (deterministic, no sampling).
func (t *Topology) MinimalHops(src, dst RouterID) int {
	var c Candidate
	t.SampleMinimal(&c, src, dst, nil)
	return c.Hops()
}

// PathBuffer holds reusable candidate storage for SamplePathsInto. The zero
// value is ready to use. A buffer must not be shared across goroutines.
type PathBuffer struct {
	cands []Candidate
	paths []Path
}

// SamplePathsInto samples nMin minimal and then nNonMin non-minimal candidate
// paths from src to dst into buf, mirroring the Aries UGAL implementation,
// which considers two of each per packet. Candidates may coincide when few
// distinct paths exist. The returned slices (and the paths they hold) alias
// the buffer and are valid until the next call with the same buffer.
func (t *Topology) SamplePathsInto(buf *PathBuffer, src, dst RouterID, nMin, nNonMin int, rng *rand.Rand) (minimal, nonMinimal []Path) {
	n := nMin + nNonMin
	if len(buf.cands) < n {
		buf.cands = make([]Candidate, n)
		buf.paths = make([]Path, n)
	}
	for i := range n {
		c := &buf.cands[i]
		if i < nMin {
			t.SampleMinimal(c, src, dst, rng)
		} else {
			t.SampleNonMinimal(c, src, dst, rng)
		}
		buf.paths[i] = c.Path()
	}
	return buf.paths[:nMin:nMin], buf.paths[nMin:n]
}

// ValidatePath reports an error if the path is not a connected chain of links
// from src to dst.
func (t *Topology) ValidatePath(src, dst RouterID, p Path) error {
	cur := src
	for i, id := range p {
		if int(id) < 0 || int(id) >= len(t.links) {
			return fmt.Errorf("topo: hop %d: invalid link id %d", i, id)
		}
		l := t.Link(id)
		if l.Src != cur {
			return fmt.Errorf("topo: hop %d: link %d starts at %d, expected %d", i, id, l.Src, cur)
		}
		cur = l.Dst
	}
	if cur != dst {
		return fmt.Errorf("topo: path ends at router %d, expected %d", cur, dst)
	}
	return nil
}
