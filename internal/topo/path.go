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

// The path constructors come in two flavours: the historical allocating form
// (MinimalPath, NonMinimalPath, SamplePaths) and an appending form
// (AppendMinimalPath, AppendNonMinimalPath, SamplePathsInto) that reuses
// caller-owned storage. Both draw from rng in exactly the same order and
// produce exactly the same links, so they are interchangeable without
// affecting simulation results; the appending form exists because path
// sampling runs once per simulated packet and used to dominate the
// simulator's allocation profile.

// appendIntraGroupPath appends one path between two routers of the same group
// to p, choosing randomly between the two 2-hop alternatives when they are not
// directly connected. It panics if the routers are in different groups.
func (t *Topology) appendIntraGroupPath(p Path, src, dst RouterID, rng *rand.Rand) Path {
	if src == dst {
		return p
	}
	cs, cd := t.coords[src], t.coords[dst]
	if cs.Group != cd.Group {
		panic(fmt.Sprintf("topo: intraGroupPath called across groups %d and %d", cs.Group, cd.Group))
	}
	if id := t.localLink(src, cs, cd); id != InvalidLink {
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
	return append(p, t.localLink(src, cs, via), t.localLink(t.RouterAt(via), via, cd))
}

// MinimalPath samples one minimal path from src to dst. For inter-group pairs
// the global link is chosen uniformly at random among the links connecting the
// two groups; local segments choose randomly among equal-length alternatives.
// rng may be nil for a deterministic (first-alternative) choice.
func (t *Topology) MinimalPath(src, dst RouterID, rng *rand.Rand) Path {
	return t.AppendMinimalPath(nil, src, dst, rng)
}

// AppendMinimalPath is MinimalPath appending into p instead of allocating.
func (t *Topology) AppendMinimalPath(p Path, src, dst RouterID, rng *rand.Rand) Path {
	if src == dst {
		return p
	}
	gs, gd := t.GroupOf(src), t.GroupOf(dst)
	if gs == gd {
		return t.appendIntraGroupPath(p, src, dst, rng)
	}
	links := t.GlobalLinks(gs, gd)
	if len(links) == 0 {
		// No direct group-to-group connection: fall back to a Valiant path
		// through an intermediate group that connects to both.
		return t.appendThroughIntermediateGroup(p, src, dst, rng)
	}
	var gl LinkID
	if rng != nil {
		gl = links[rng.Intn(len(links))]
	} else {
		gl = links[0]
	}
	l := t.Link(gl)
	p = t.appendIntraGroupPath(p, src, l.Src, rng)
	p = append(p, gl)
	return t.appendIntraGroupPath(p, l.Dst, dst, rng)
}

// appendThroughIntermediateGroup appends a path src -> (router in group gi) ->
// dst where gi is a randomly chosen group different from both endpoints'
// groups and connected to both (the candidate set is precomputed per group
// pair at construction). It is used both for Valiant non-minimal routing and
// as a fallback when two groups have no direct link. When no usable
// intermediate group and no direct link exists, p is returned unchanged
// (the caller treats the pair as unreachable).
func (t *Topology) appendThroughIntermediateGroup(p Path, src, dst RouterID, rng *rand.Rand) Path {
	gs, gd := t.GroupOf(src), t.GroupOf(dst)
	candidates := t.viaGroups[int(gs)*t.cfg.Groups+int(gd)]
	if len(candidates) == 0 {
		// No usable intermediate group; as a last resort return a direct
		// minimal path if one exists.
		if links := t.GlobalLinks(gs, gd); len(links) > 0 {
			return t.AppendMinimalPath(p, src, dst, rng)
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
	p = t.appendIntraGroupPath(p, src, li.Src, rng)
	p = append(p, inL)
	p = t.appendIntraGroupPath(p, li.Dst, lo.Src, rng)
	p = append(p, outL)
	return t.appendIntraGroupPath(p, lo.Dst, dst, rng)
}

// NonMinimalPath samples one Valiant-style non-minimal path from src to dst.
// For inter-group pairs the path traverses a random intermediate group; for
// intra-group pairs it traverses a random intermediate router of the same
// group. rng may be nil for a deterministic choice.
func (t *Topology) NonMinimalPath(src, dst RouterID, rng *rand.Rand) Path {
	return t.AppendNonMinimalPath(nil, src, dst, rng)
}

// AppendNonMinimalPath is NonMinimalPath appending into p instead of
// allocating.
func (t *Topology) AppendNonMinimalPath(p Path, src, dst RouterID, rng *rand.Rand) Path {
	if src == dst {
		return p
	}
	gs, gd := t.GroupOf(src), t.GroupOf(dst)
	if gs != gd && t.cfg.Groups > 2 {
		if q := t.appendThroughIntermediateGroup(p, src, dst, rng); len(q) > len(p) {
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
		return t.AppendMinimalPath(p, src, dst, rng)
	}
	p = t.appendIntraGroupPath(p, src, via, rng)
	if gs == gd {
		return t.appendIntraGroupPath(p, via, dst, rng)
	}
	return t.AppendMinimalPath(p, via, dst, rng)
}

// PathBuffer holds reusable candidate-path storage for SamplePathsInto. The
// zero value is ready to use. A buffer must not be shared across goroutines;
// the routing policy owns one per simulated system.
type PathBuffer struct {
	minimal    []Path
	nonMinimal []Path
}

// growPaths extends ps to n entries, keeping the backing arrays of existing
// entries for reuse.
func growPaths(ps []Path, n int) []Path {
	if cap(ps) < n {
		ps = append(ps[:cap(ps)], make([]Path, n-cap(ps))...)
	}
	return ps[:n]
}

// SamplePaths returns nMin minimal and nNonMin non-minimal candidate paths,
// mirroring the Aries UGAL implementation which considers two of each per
// packet. Candidates may coincide when few distinct paths exist.
func (t *Topology) SamplePaths(src, dst RouterID, nMin, nNonMin int, rng *rand.Rand) (minimal, nonMinimal []Path) {
	var buf PathBuffer
	return t.SamplePathsInto(&buf, src, dst, nMin, nNonMin, rng)
}

// SamplePathsInto is SamplePaths sampling into buf: the returned slices (and
// the paths they hold) alias the buffer and are valid until the next call
// with the same buffer. It draws from rng exactly like SamplePaths, so the
// two are interchangeable without affecting results.
func (t *Topology) SamplePathsInto(buf *PathBuffer, src, dst RouterID, nMin, nNonMin int, rng *rand.Rand) (minimal, nonMinimal []Path) {
	buf.minimal = growPaths(buf.minimal, nMin)
	buf.nonMinimal = growPaths(buf.nonMinimal, nNonMin)
	for i := 0; i < nMin; i++ {
		buf.minimal[i] = t.AppendMinimalPath(buf.minimal[i][:0], src, dst, rng)
	}
	for i := 0; i < nNonMin; i++ {
		buf.nonMinimal[i] = t.AppendNonMinimalPath(buf.nonMinimal[i][:0], src, dst, rng)
	}
	return buf.minimal, buf.nonMinimal
}

// MinimalHops returns the number of hops of a minimal path between the two
// routers (deterministic, no sampling).
func (t *Topology) MinimalHops(src, dst RouterID) int {
	return len(t.MinimalPath(src, dst, nil))
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
