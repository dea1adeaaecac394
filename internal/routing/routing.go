// Package routing implements the adaptive routing modes of the Cray Aries
// interconnect as described in §2.2 of the paper: a UGAL-style algorithm that,
// for every packet, samples two minimal and two non-minimal candidate paths,
// estimates their congestion from local queue occupancy and (delayed) credit
// information, and selects the cheapest path after adding a configurable bias
// to the non-minimal candidates. The bias is the lever exposed to applications
// through MPICH_GNI_ROUTING_MODE, and is the mechanism the paper's
// application-aware routing library manipulates.
package routing

import (
	"fmt"
	"math"
	"math/rand"

	"dragonfly/internal/topo"
)

// Mode mirrors the values of the MPICH_GNI_ROUTING_MODE environment variable.
type Mode uint8

const (
	// Adaptive is ADAPTIVE_0: UGAL with no bias added to non-minimal paths.
	// The paper calls it "Adaptive" and it is the default for most traffic.
	Adaptive Mode = iota
	// IncreasinglyMinimalBias is ADAPTIVE_1: the bias towards minimal routing
	// increases as the packet approaches the destination. It is the default
	// routing for MPI_Alltoall communications.
	IncreasinglyMinimalBias
	// AdaptiveLowBias is ADAPTIVE_2: a low constant bias is added.
	AdaptiveLowBias
	// AdaptiveHighBias is ADAPTIVE_3: a high constant bias is added. The paper
	// calls it "Adaptive with High Bias".
	AdaptiveHighBias
	// MinHash always routes minimally; the path is selected by a hash of the
	// packet header (deterministic, not adaptive).
	MinHash
	// NonMinHash always routes non-minimally; the path is selected by a hash
	// of the packet header (deterministic, not adaptive).
	NonMinHash
	// InOrder always routes minimally on a single path so packets arrive in
	// transmission order.
	InOrder
)

// String returns the MPICH_GNI_ROUTING_MODE-style name of the mode.
func (m Mode) String() string {
	switch m {
	case Adaptive:
		return "ADAPTIVE_0"
	case IncreasinglyMinimalBias:
		return "ADAPTIVE_1"
	case AdaptiveLowBias:
		return "ADAPTIVE_2"
	case AdaptiveHighBias:
		return "ADAPTIVE_3"
	case MinHash:
		return "MIN_HASH"
	case NonMinHash:
		return "NMIN_HASH"
	case InOrder:
		return "IN_ORDER"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Name returns the human-readable name the paper uses for the mode.
func (m Mode) Name() string {
	switch m {
	case Adaptive:
		return "Adaptive"
	case IncreasinglyMinimalBias:
		return "Increasingly Minimal Bias"
	case AdaptiveLowBias:
		return "Adaptive with Low Bias"
	case AdaptiveHighBias:
		return "Adaptive with High Bias"
	case MinHash:
		return "Minimal Hashed"
	case NonMinHash:
		return "Non-Minimal Hashed"
	case InOrder:
		return "In-Order Minimal"
	default:
		return m.String()
	}
}

// ParseMode converts an MPICH_GNI_ROUTING_MODE-style string to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "ADAPTIVE_0", "adaptive", "Adaptive":
		return Adaptive, nil
	case "ADAPTIVE_1", "imb":
		return IncreasinglyMinimalBias, nil
	case "ADAPTIVE_2", "low-bias":
		return AdaptiveLowBias, nil
	case "ADAPTIVE_3", "high-bias":
		return AdaptiveHighBias, nil
	case "MIN_HASH":
		return MinHash, nil
	case "NMIN_HASH":
		return NonMinHash, nil
	case "IN_ORDER":
		return InOrder, nil
	default:
		return Adaptive, fmt.Errorf("routing: unknown mode %q", s)
	}
}

// CongestionView is the information the routing algorithm can observe about
// the network state. It is implemented by the network fabric. The view is
// allowed to be stale (credit information propagates with a delay), which is
// what produces the phantom-congestion behaviour discussed in the paper.
//
// A path's cost is, per hop, the link's perceived backlog (never negative,
// subject to credit staleness), plus its propagation delay, plus the time to
// serialize the packet's flits onto it. The last two are fixed per link
// tier, so Route prices a candidate's fixed floor from its per-tier hop
// counts and one HopCosts table, and reads backlogs only for a candidate
// whose floor can still win.
type CongestionView interface {
	// HopCosts returns, indexed by link tier, the fixed cost in cycles of
	// one hop for a packet of the given flit count: propagation plus
	// serialization.
	HopCosts(flits int) [topo.NumLinkTypes]int64
	// BacklogBelow adds to cost the perceived backlog at now of each link
	// of path, in order, and reports whether the sum is below bound. Once
	// the sum reaches bound the view may stop and return any value >= bound,
	// which lets Route skip the rest of a candidate that can no longer win.
	BacklogBelow(path topo.Path, now, cost, bound int64) (int64, bool)
	// CostBelow is the cost of one packet of the given flit count crossing
	// path at now, with below reporting cost < bound; when the cost is not
	// below bound the view may return any value >= bound. It serves paths
	// whose tiers the caller does not know (PathCost).
	CostBelow(path topo.Path, flits int, now, bound int64) (cost int64, below bool)
}

// Params configures the UGAL cost model and the per-mode biases.
type Params struct {
	// MinimalCandidates and NonMinimalCandidates are the number of candidate
	// paths sampled per packet (2 and 2 on Aries).
	MinimalCandidates    int
	NonMinimalCandidates int
	// LowBiasCycles is the constant added to the cost of non-minimal
	// candidates under AdaptiveLowBias.
	LowBiasCycles int64
	// HighBiasCycles is the constant added under AdaptiveHighBias.
	HighBiasCycles int64
}

// imbBiasPerHopCycles is the per-minimal-hop bias used to approximate
// Increasingly Minimal Bias (Cray's alltoall default) in a source-routed
// model: the shorter the remaining minimal path, the stronger the preference
// for it.
const imbBiasPerHopCycles = 150

// DefaultParams returns the parameters used throughout the experiments.
func DefaultParams() Params {
	return Params{
		MinimalCandidates:    2,
		NonMinimalCandidates: 2,
		LowBiasCycles:        200,
		HighBiasCycles:       800,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.MinimalCandidates < 1 {
		return fmt.Errorf("routing: MinimalCandidates must be >= 1, got %d", p.MinimalCandidates)
	}
	if p.NonMinimalCandidates < 1 {
		return fmt.Errorf("routing: NonMinimalCandidates must be >= 1, got %d", p.NonMinimalCandidates)
	}
	if p.LowBiasCycles < 0 || p.HighBiasCycles < 0 {
		return fmt.Errorf("routing: biases must be non-negative")
	}
	if p.HighBiasCycles < p.LowBiasCycles {
		return fmt.Errorf("routing: HighBiasCycles (%d) must be >= LowBiasCycles (%d)",
			p.HighBiasCycles, p.LowBiasCycles)
	}
	return nil
}

// Decision is the outcome of routing one packet.
type Decision struct {
	// Path is the selected source route. It aliases the issuing Policy's
	// reusable storage: it is valid until the next Route call on that Policy
	// and must be copied if retained longer.
	Path topo.Path
	// Minimal reports whether the selected path is one of the minimal candidates.
	Minimal bool
	// Cost is the estimated cost (cycles) of the selected path, including bias.
	Cost int64
}

// Policy selects paths for packets according to a routing mode.
//
// A Policy owns reusable candidate storage: the Path inside a returned
// Decision aliases that storage and is only valid until the next Route call
// on the same Policy. The fabric consumes the path within the same event;
// callers that retain paths must copy them. Policies are consequently not
// safe for concurrent use — one Policy per simulated system, like the engine
// and the fabric.
type Policy struct {
	topo   *topo.Topology
	params Params

	// cands holds one decision's candidates, the minimal ones first; the
	// single path of the hashed and in-order modes goes in cands[0].
	// hashRng is the deterministic per-packet stream of the hashed modes,
	// reseeded per packet instead of reallocated. Route allocates nothing.
	cands   []topo.Candidate
	hashRng *rand.Rand

	// trace, when non-nil, records every adaptive decision with its candidate
	// costs. Off by default; the disabled cost is one nil check per Route.
	trace *DecisionTrace
}

// NewPolicy builds a routing policy over the given topology.
func NewPolicy(t *topo.Topology, params Params) (*Policy, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Policy{
		topo:   t,
		params: params,
		cands:  make([]topo.Candidate, params.MinimalCandidates+params.NonMinimalCandidates),
	}, nil
}

// MustNewPolicy is like NewPolicy but panics on invalid parameters.
func MustNewPolicy(t *topo.Topology, params Params) *Policy {
	p, err := NewPolicy(t, params)
	if err != nil {
		panic(err)
	}
	return p
}

// Params returns the policy parameters.
func (p *Policy) Params() Params { return p.params }

// SetDecisionTrace attaches (or, with nil, detaches) a decision recorder.
func (p *Policy) SetDecisionTrace(t *DecisionTrace) { p.trace = t }

// DecisionTrace returns the attached recorder, or nil when tracing is off.
func (p *Policy) DecisionTrace() *DecisionTrace { return p.trace }

// Topology returns the underlying topology.
func (p *Policy) Topology() *topo.Topology { return p.topo }

// PathCost estimates the traversal cost of a path for a packet of the given
// flit count: per-hop serialization plus propagation plus the perceived queue
// backlog of each link. This mirrors the UGAL decision of comparing
// queue-depth x hop-count between minimal and non-minimal candidates.
func PathCost(path topo.Path, flits int, view CongestionView, now int64) int64 {
	cost, _ := view.CostBelow(path, flits, now, math.MaxInt64)
	return cost
}

// floor is a candidate's fixed cost, from its hop count on each tier.
func floor(c *topo.Candidate, hop *[topo.NumLinkTypes]int64) int64 {
	var f int64
	for k, n := range c.Tiers() {
		f += int64(n) * hop[k]
	}
	return f
}

// fullCost is PathCost for a sampled candidate.
func fullCost(c *topo.Candidate, hop *[topo.NumLinkTypes]int64, view CongestionView, now int64) int64 {
	cost, _ := view.BacklogBelow(c.Path(), now, floor(c, hop), math.MaxInt64)
	return cost
}

// BiasFor returns the additive non-minimal bias for the mode, given the
// length of the best minimal candidate (used by the Increasingly-Minimal-Bias
// approximation: the closer the destination, i.e. the shorter the minimal
// path, the larger the bias). It is exported so counterfactual scoring can
// re-bias recorded raw costs under alternative modes.
func (p Params) BiasFor(mode Mode, minimalHops int) int64 {
	switch mode {
	case Adaptive:
		return 0
	case AdaptiveLowBias:
		return p.LowBiasCycles
	case AdaptiveHighBias:
		return p.HighBiasCycles
	case IncreasinglyMinimalBias:
		remaining := topo.MaxMinimalHops - minimalHops
		if remaining < 0 {
			remaining = 0
		}
		return imbBiasPerHopCycles * int64(1+remaining)
	default:
		return 0
	}
}

func (p *Policy) bias(mode Mode, minimalHops int) int64 {
	return p.params.BiasFor(mode, minimalHops)
}

// Route selects a path for one packet of the given flit count from the router
// of the source node to the router of the destination node.
//
// hash is only used by the deterministic modes (MinHash, NonMinHash, InOrder);
// adaptive modes use rng to sample candidates, matching the per-packet random
// candidate selection of Aries UGAL.
func (p *Policy) Route(mode Mode, src, dst topo.RouterID, flits int, hash uint64,
	view CongestionView, now int64, rng *rand.Rand) Decision {

	if src == dst {
		return Decision{Path: nil, Minimal: true, Cost: 0}
	}
	switch mode {
	case MinHash, NonMinHash, InOrder:
		return p.routeFixed(mode, src, dst, flits, hash, view, now)
	}

	// Adaptive modes: sample candidates and pick the cheapest after bias.
	nMin := p.params.MinimalCandidates
	for i := range p.cands {
		if i < nMin {
			p.topo.SampleMinimal(&p.cands[i], src, dst, rng)
		} else {
			p.topo.SampleNonMinimal(&p.cands[i], src, dst, rng)
		}
	}
	bestMinHops := topo.MaxMinimalHops
	for i := range p.cands[:nMin] {
		bestMinHops = min(bestMinHops, p.cands[i].Hops())
	}
	nonMinBias := p.bias(mode, bestMinHops)
	hop := view.HopCosts(flits)

	// Each candidate is costed against the best biased cost so far. Its
	// floor needs no view call, and its backlogs are read only while it can
	// still win the strict-< argmin, so the winner and its cost are those of
	// a full costing.
	best := Decision{Cost: int64(1) << 62}
	bestIdx := -1
	for i := range p.cands {
		c := &p.cands[i]
		var bias int64
		if i >= nMin {
			bias = nonMinBias
		}
		bound := best.Cost - bias
		f := floor(c, &hop)
		if f >= bound {
			continue
		}
		if cost, below := view.BacklogBelow(c.Path(), now, f, bound); below {
			best = Decision{Path: c.Path(), Minimal: i < nMin, Cost: cost + bias}
			bestIdx = i
		}
	}
	if p.trace != nil {
		p.trace.record(int(p.topo.GroupOf(src)), mode, src, dst, flits, now, view, &hop,
			p.cands, nMin, bestMinHops, nonMinBias, bestIdx)
	}
	return best
}

// routeFixed routes along the single path of a deterministic mode. The
// hashed modes sample it with a stream seeded from the packet header, so
// different hash values spread over the available paths while identical
// headers reuse the path; reseeding the policy's private Rand replays the
// exact stream a freshly constructed one would produce, without the
// per-packet allocation. InOrder takes the first alternative everywhere.
func (p *Policy) routeFixed(mode Mode, src, dst topo.RouterID, flits int, hash uint64,
	view CongestionView, now int64) Decision {

	c := &p.cands[0]
	if mode == InOrder {
		p.topo.SampleMinimal(c, src, dst, nil)
	} else {
		seed := int64(hash ^ uint64(src)<<32 ^ uint64(dst))
		if p.hashRng == nil {
			p.hashRng = rand.New(rand.NewSource(seed))
		} else {
			p.hashRng.Seed(seed)
		}
		if mode == MinHash {
			p.topo.SampleMinimal(c, src, dst, p.hashRng)
		} else {
			p.topo.SampleNonMinimal(c, src, dst, p.hashRng)
		}
	}
	hop := view.HopCosts(flits)
	return Decision{Path: c.Path(), Minimal: mode != NonMinHash, Cost: fullCost(c, &hop, view, now)}
}

// ZeroView is a CongestionView that reports an idle network. It is useful for
// tests and for computing baseline path costs.
type ZeroView struct {
	// Propagation is the constant propagation delay returned for every link.
	Propagation int64
	// CyclesPerFlit is the constant serialization rate returned for every link.
	CyclesPerFlit int64
}

// HopCosts implements CongestionView: every tier costs the constant
// propagation plus flits times the constant serialization rate.
func (v ZeroView) HopCosts(flits int) (hop [topo.NumLinkTypes]int64) {
	for k := range hop {
		hop[k] = v.Propagation + v.CyclesPerFlit*int64(flits)
	}
	return hop
}

// BacklogBelow implements CongestionView: there is no backlog to add.
func (ZeroView) BacklogBelow(_ topo.Path, _, cost, bound int64) (int64, bool) {
	return cost, cost < bound
}

// CostBelow implements CongestionView: no backlog, so every hop costs the
// constant propagation plus flits times the constant serialization rate.
func (v ZeroView) CostBelow(path topo.Path, flits int, _, bound int64) (int64, bool) {
	cost := int64(len(path)) * (v.Propagation + v.CyclesPerFlit*int64(flits))
	return cost, cost < bound
}
