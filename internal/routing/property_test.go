package routing

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dragonfly/internal/topo"
)

// randomGeometry draws a small but varied Dragonfly shape: group counts,
// chassis/blade layouts and port counts all vary, including degenerate
// single-dimension shapes (one chassis, one blade row).
func randomGeometry(rng *rand.Rand) topo.Config {
	for {
		cfg := topo.Config{
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

// allModes are the routing modes Route accepts.
var allModes = []Mode{
	Adaptive, IncreasinglyMinimalBias, AdaptiveLowBias, AdaptiveHighBias,
	MinHash, NonMinHash, InOrder,
}

// TestPropertyRoutesAreRealPaths is the core property: on randomized
// geometries, every Decision.Path returned by every routing mode is a
// connected chain of real topology links from the source router to the
// destination router.
func TestPropertyRoutesAreRealPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < 25; g++ {
		cfg := randomGeometry(rng)
		tp := topo.MustNew(cfg)
		pol := MustNewPolicy(tp, DefaultParams())
		view := ZeroView{Propagation: 100, CyclesPerFlit: 4}
		for trial := 0; trial < 40; trial++ {
			src := topo.RouterID(rng.Intn(tp.NumRouters()))
			dst := topo.RouterID(rng.Intn(tp.NumRouters()))
			for _, mode := range allModes {
				dec := pol.Route(mode, src, dst, 5, rng.Uint64(), view, 0, rng)
				if err := tp.ValidatePath(src, dst, dec.Path); err != nil {
					t.Fatalf("geometry %+v: mode %s route %d->%d: %v (path %v)",
						cfg, mode, src, dst, err, dec.Path)
				}
			}
		}
	}
}

// TestPropertyMinimalHopBound checks the dragonfly minimal-path bound on
// randomized geometries: a minimal path is at most local–global–local per
// group traversal — ≤ 2 hops inside a group, ≤ 2+1+2 across groups (and
// never more than MaxMinimalHops even on the Valiant fallback for group
// pairs without a direct link).
func TestPropertyMinimalHopBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for g := 0; g < 25; g++ {
		cfg := randomGeometry(rng)
		tp := topo.MustNew(cfg)
		for trial := 0; trial < 60; trial++ {
			src := topo.RouterID(rng.Intn(tp.NumRouters()))
			dst := topo.RouterID(rng.Intn(tp.NumRouters()))
			path := tp.MinimalPath(src, dst, rng)
			sameGroup := tp.GroupOf(src) == tp.GroupOf(dst)
			direct := len(tp.GlobalLinks(tp.GroupOf(src), tp.GroupOf(dst))) > 0
			bound := topo.MaxMinimalHops
			switch {
			case src == dst:
				bound = 0
			case sameGroup:
				bound = 2 // intra-chassis + row, or a direct link
			case !direct:
				// No direct group pair: minimal falls back to a Valiant
				// detour, which may cost up to the non-minimal bound.
				bound = topo.MaxNonMinimalHops
			}
			if len(path) > bound {
				t.Fatalf("geometry %+v: minimal path %d->%d has %d hops, bound %d (path %v)",
					cfg, src, dst, len(path), bound, path)
			}
			globals := 0
			for _, id := range path {
				if tp.Link(id).Type == topo.LinkGlobal {
					globals++
				}
			}
			if sameGroup && globals != 0 {
				t.Fatalf("geometry %+v: intra-group minimal path %d->%d crossed %d global links",
					cfg, src, dst, globals)
			}
			if !sameGroup && direct && globals != 1 {
				t.Fatalf("geometry %+v: inter-group minimal path %d->%d crossed %d global links, want 1",
					cfg, src, dst, globals)
			}
		}
	}
}

// TestPropertyValiantIntermediateGroups checks the Valiant invariant on
// randomized geometries: a non-minimal inter-group path detours through an
// intermediate group that is neither the source nor the destination group
// (whenever such a group exists), observable as the first global hop landing
// in a third group.
func TestPropertyValiantIntermediateGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for g := 0; g < 40; g++ {
		cfg := randomGeometry(rng)
		if cfg.Groups < 3 {
			continue // a detour group needs at least three groups
		}
		tp := topo.MustNew(cfg)
		for trial := 0; trial < 60; trial++ {
			src := topo.RouterID(rng.Intn(tp.NumRouters()))
			dst := topo.RouterID(rng.Intn(tp.NumRouters()))
			gs, gd := tp.GroupOf(src), tp.GroupOf(dst)
			if gs == gd {
				continue
			}
			var c topo.Candidate
			tp.SampleNonMinimal(&c, src, dst, rng)
			path := c.Path()
			if err := tp.ValidatePath(src, dst, path); err != nil {
				t.Fatalf("geometry %+v: %v", cfg, err)
			}
			// Reconstruct the groups the path's global hops land in.
			var via []topo.GroupID
			for _, id := range path {
				if l := tp.Link(id); l.Type == topo.LinkGlobal {
					via = append(via, tp.GroupOf(l.Dst))
				}
			}
			if len(via) < 2 {
				// Degenerate wiring can leave no usable intermediate group;
				// then the path legitimately collapses to a minimal one.
				continue
			}
			if inter := via[0]; inter == gs || inter == gd {
				t.Fatalf("geometry %+v: Valiant detour %d->%d entered group %d, which is an endpoint group (%d, %d); path %v",
					cfg, src, dst, inter, gs, gd, path)
			}
		}
	}
}

// TestPropertyAdaptiveCandidatesRespectBounds samples the UGAL candidate sets
// directly: minimal candidates stay within the minimal hop bound and
// non-minimal candidates within the Valiant bound, on randomized geometries.
func TestPropertyAdaptiveCandidatesRespectBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var buf topo.PathBuffer
	for g := 0; g < 25; g++ {
		cfg := randomGeometry(rng)
		tp := topo.MustNew(cfg)
		for trial := 0; trial < 40; trial++ {
			src := topo.RouterID(rng.Intn(tp.NumRouters()))
			dst := topo.RouterID(rng.Intn(tp.NumRouters()))
			direct := tp.GroupOf(src) == tp.GroupOf(dst) ||
				len(tp.GlobalLinks(tp.GroupOf(src), tp.GroupOf(dst))) > 0
			minimal, nonMinimal := tp.SamplePathsInto(&buf, src, dst, 2, 2, rng)
			for _, p := range minimal {
				if err := tp.ValidatePath(src, dst, p); err != nil {
					t.Fatalf("geometry %+v: minimal candidate: %v", cfg, err)
				}
				if direct && len(p) > topo.MaxMinimalHops {
					t.Fatalf("geometry %+v: minimal candidate %d->%d has %d hops", cfg, src, dst, len(p))
				}
			}
			for _, p := range nonMinimal {
				if err := tp.ValidatePath(src, dst, p); err != nil {
					t.Fatalf("geometry %+v: non-minimal candidate: %v", cfg, err)
				}
				if len(p) > topo.MaxNonMinimalHops {
					t.Fatalf("geometry %+v: non-minimal candidate %d->%d has %d hops", cfg, src, dst, len(p))
				}
			}
		}
	}
}

// backlogView is a congestion view with a fixed non-negative backlog per
// link and a fixed hop cost per link tier. It prunes like the fabric: once
// the running sum reaches the bound it stops and reports that partial sum
// (or the bound itself), not the path's cost, so a caller that used the
// value would go wrong.
type backlogView struct {
	backlog []int64
	tier    []topo.LinkType
	prop    [topo.NumLinkTypes]int64
	pruned  *int // BacklogBelow and CostBelow calls that answered "not below"
}

func newBacklogView(tp *topo.Topology, rng *rand.Rand, pruned *int) backlogView {
	v := backlogView{backlog: make([]int64, tp.NumLinks()), tier: make([]topo.LinkType, tp.NumLinks()), pruned: pruned}
	for i, l := range tp.Links() {
		v.tier[i] = l.Type
	}
	for k := range v.prop {
		v.prop[k] = 1 + rng.Int63n(200)
	}
	return v
}

func (v backlogView) floor(path topo.Path, flits int) int64 {
	var cost int64
	for _, id := range path {
		cost += v.prop[v.tier[id]] + int64(flits)
	}
	return cost
}

func (v backlogView) fullCost(path topo.Path, flits int) int64 {
	cost := v.floor(path, flits)
	for _, id := range path {
		cost += v.backlog[id]
	}
	return cost
}

func (v backlogView) HopCosts(flits int) (hop [topo.NumLinkTypes]int64) {
	for k := range hop {
		hop[k] = v.prop[k] + int64(flits)
	}
	return hop
}

func (v backlogView) BacklogBelow(path topo.Path, _, cost, bound int64) (int64, bool) {
	if cost >= bound {
		*v.pruned++
		return bound, false
	}
	for _, id := range path {
		cost += v.backlog[id]
		if cost >= bound {
			*v.pruned++
			return cost, false
		}
	}
	return cost, true
}

func (v backlogView) CostBelow(path topo.Path, flits int, now, bound int64) (int64, bool) {
	return v.BacklogBelow(path, now, v.floor(path, flits), bound)
}

// fullArgmin is the reference UGAL decision: it samples the candidates Route
// samples, costs every one in full and takes the strict-< argmin of the
// biased costs, minimal candidates first.
func fullArgmin(tp *topo.Topology, p Params, mode Mode, src, dst topo.RouterID, flits int,
	view backlogView, rng *rand.Rand, buf *topo.PathBuffer) Decision {
	minimal, nonMinimal := tp.SamplePathsInto(buf, src, dst, p.MinimalCandidates, p.NonMinimalCandidates, rng)
	bestMinHops := topo.MaxMinimalHops
	for _, cand := range minimal {
		bestMinHops = min(bestMinHops, len(cand))
	}
	best := Decision{Cost: math.MaxInt64}
	for _, cand := range minimal {
		if c := view.fullCost(cand, flits); c < best.Cost {
			best = Decision{Path: cand, Minimal: true, Cost: c}
		}
	}
	bias := p.BiasFor(mode, bestMinHops)
	for _, cand := range nonMinimal {
		if c := view.fullCost(cand, flits) + bias; c < best.Cost {
			best = Decision{Path: cand, Minimal: false, Cost: c}
		}
	}
	return best
}

// TestPropertyPrunedRouteMatchesFullArgmin checks how Route bounds each
// candidate's costing: on randomized geometries with random non-negative
// per-link backlogs, for every adaptive mode, Route returns the Decision
// (path, minimal, cost) of the reference full-costing argmin, and leaves its
// RNG where the reference leaves an identically seeded one.
func TestPropertyPrunedRouteMatchesFullArgmin(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	params := DefaultParams()
	adaptive := []Mode{Adaptive, IncreasinglyMinimalBias, AdaptiveLowBias, AdaptiveHighBias}
	var pruned, decisions, nonMinimal int
	var buf topo.PathBuffer
	for g := 0; g < 12; g++ {
		tp := topo.MustNew(randomGeometry(rng))
		pol := MustNewPolicy(tp, params)
		view := newBacklogView(tp, rng, &pruned)
		for trial := 0; trial < 60; trial++ {
			for i := range view.backlog {
				view.backlog[i] = 0
				if rng.Intn(2) == 0 {
					view.backlog[i] = rng.Int63n(3 * params.HighBiasCycles)
				}
			}
			src := topo.RouterID(rng.Intn(tp.NumRouters()))
			dst := topo.RouterID(rng.Intn(tp.NumRouters()))
			if src == dst {
				continue
			}
			for _, mode := range adaptive {
				seed := rng.Int63()
				gotRng, refRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				got := pol.Route(mode, src, dst, 5, 0, view, 0, gotRng)
				want := fullArgmin(tp, params, mode, src, dst, 5, view, refRng, &buf)
				if !pathsEqual(got.Path, want.Path) || got.Minimal != want.Minimal || got.Cost != want.Cost {
					t.Fatalf("%s %d->%d: Route = (%v, minimal=%v, cost=%d), full argmin = (%v, minimal=%v, cost=%d)",
						mode, src, dst, got.Path, got.Minimal, got.Cost, want.Path, want.Minimal, want.Cost)
				}
				if a, b := gotRng.Int63(), refRng.Int63(); a != b {
					t.Fatalf("%s %d->%d: Route left its RNG at a different position than the reference", mode, src, dst)
				}
				decisions++
				if !got.Minimal {
					nonMinimal++
				}
			}
		}
	}
	// The property is only as strong as the cases it met: pruning must have
	// happened and both kinds of candidate must have won.
	if pruned == 0 || nonMinimal == 0 || nonMinimal == decisions {
		t.Fatalf("weak coverage: %d pruned costings, %d of %d decisions non-minimal", pruned, nonMinimal, decisions)
	}
}

// countingView records the calls Route makes on a backlogView.
type countingView struct {
	backlogView
	hopCalls int
	reads    []topo.Path // the path of each BacklogBelow call, copied
}

func (v *countingView) HopCosts(flits int) [topo.NumLinkTypes]int64 {
	v.hopCalls++
	return v.backlogView.HopCosts(flits)
}

func (v *countingView) BacklogBelow(path topo.Path, now, cost, bound int64) (int64, bool) {
	v.reads = append(v.reads, slices.Clone(path))
	return v.backlogView.BacklogBelow(path, now, cost, bound)
}

// TestRouteReadsBacklogsOnlyWhileCandidateCanWin counts Route's view calls on
// random geometries, backlogs and adaptive modes. A decision asks for one
// HopCosts table. Walking the reference candidates in Route's order against
// the running best of a full costing, a candidate whose floor already
// reaches its bound must get no view call, and every other candidate
// exactly one BacklogBelow call, in order.
func TestRouteReadsBacklogsOnlyWhileCandidateCanWin(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	params := DefaultParams()
	adaptive := []Mode{Adaptive, IncreasinglyMinimalBias, AdaptiveLowBias, AdaptiveHighBias}
	var pruned, skipped, read int
	var buf topo.PathBuffer
	for g := 0; g < 25; g++ {
		tp := topo.MustNew(randomGeometry(rng))
		pol := MustNewPolicy(tp, params)
		view := &countingView{backlogView: newBacklogView(tp, rng, &pruned)}
		for trial := 0; trial < 40; trial++ {
			for i := range view.backlog {
				view.backlog[i] = 0
				if rng.Intn(2) == 0 {
					view.backlog[i] = rng.Int63n(3 * params.HighBiasCycles)
				}
			}
			src := topo.RouterID(rng.Intn(tp.NumRouters()))
			dst := topo.RouterID(rng.Intn(tp.NumRouters()))
			if src == dst {
				continue
			}
			for _, mode := range adaptive {
				seed := rng.Int63()
				minimal, nonMinimal := tp.SamplePathsInto(&buf, src, dst,
					params.MinimalCandidates, params.NonMinimalCandidates, rand.New(rand.NewSource(seed)))
				bestMinHops := topo.MaxMinimalHops
				for _, cand := range minimal {
					bestMinHops = min(bestMinHops, len(cand))
				}
				var want []topo.Path
				best := int64(1) << 62
				for i, cand := range append(slices.Clone(minimal), nonMinimal...) {
					var bias int64
					if i >= len(minimal) {
						bias = params.BiasFor(mode, bestMinHops)
					}
					if view.floor(cand, 5) >= best-bias {
						skipped++
						continue
					}
					want = append(want, cand)
					if c := view.fullCost(cand, 5) + bias; c < best {
						best = c
					}
				}
				view.hopCalls, view.reads = 0, view.reads[:0]
				pol.Route(mode, src, dst, 5, 0, view, 0, rand.New(rand.NewSource(seed)))
				if view.hopCalls != 1 {
					t.Fatalf("%s %d->%d: %d HopCosts calls, want 1", mode, src, dst, view.hopCalls)
				}
				if !slices.EqualFunc(view.reads, want, slices.Equal) {
					t.Fatalf("%s %d->%d: Route read the backlogs of %v, want %v", mode, src, dst, view.reads, want)
				}
				read += len(want)
			}
		}
	}
	if skipped == 0 || pruned == 0 || read == 0 {
		t.Fatalf("weak coverage: %d candidates skipped on their floor, %d backlog reads, %d of them stopped early",
			skipped, read, pruned)
	}
}
