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

// IsAdaptive reports whether the mode performs per-packet adaptive selection.
func (m Mode) IsAdaptive() bool {
	switch m {
	case Adaptive, IncreasinglyMinimalBias, AdaptiveLowBias, AdaptiveHighBias:
		return true
	default:
		return false
	}
}

// CongestionView is the information the routing algorithm can observe about
// the network state. It is implemented by the network fabric. The view is
// allowed to be stale (credit information propagates with a delay), which is
// what produces the phantom-congestion behaviour discussed in the paper.
type CongestionView interface {
	// LinkCost returns the estimated cost, in cycles, of one packet of the
	// given flit count crossing the link at time now: the link's perceived
	// backlog (subject to credit/propagation staleness), plus its
	// propagation delay, plus the time to serialize the flits onto it.
	LinkCost(id topo.LinkID, flits int, now int64) int64
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
	// IMBBiasPerHopCycles is the per-minimal-hop bias used to approximate
	// Increasingly Minimal Bias in a source-routed model: the shorter the
	// remaining minimal path, the stronger the preference for it.
	IMBBiasPerHopCycles int64
}

// DefaultParams returns the parameters used throughout the experiments.
func DefaultParams() Params {
	return Params{
		MinimalCandidates:    2,
		NonMinimalCandidates: 2,
		LowBiasCycles:        200,
		HighBiasCycles:       800,
		IMBBiasPerHopCycles:  150,
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
	if p.LowBiasCycles < 0 || p.HighBiasCycles < 0 || p.IMBBiasPerHopCycles < 0 {
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
// A Policy owns reusable candidate-path storage: the Path inside a returned
// Decision aliases that storage and is only valid until the next Route call
// on the same Policy. The fabric consumes the path within the same event;
// callers that retain paths must copy them. Policies are consequently not
// safe for concurrent use — one Policy per simulated system, like the engine
// and the fabric.
type Policy struct {
	topo   *topo.Topology
	params Params

	// pathBuf holds the adaptive modes' candidate paths; hashScratch holds
	// the single path of the hashed/in-order modes; hashRng is the
	// deterministic per-packet stream of the hashed modes, reseeded per
	// packet instead of reallocated. Together they make Route allocation-free
	// after warm-up — path sampling runs once per simulated packet and used
	// to dominate the simulator's allocation profile.
	pathBuf     topo.PathBuffer
	hashScratch topo.Path
	hashRng     *rand.Rand

	// trace, when non-nil, records every adaptive decision with its candidate
	// costs. Off by default; the disabled cost is one nil check per Route.
	trace *DecisionTrace
}

// NewPolicy builds a routing policy over the given topology.
func NewPolicy(t *topo.Topology, params Params) (*Policy, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Policy{topo: t, params: params}, nil
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
	var cost int64
	for _, id := range path {
		cost += view.LinkCost(id, flits, now)
	}
	return cost
}

// hashPath returns a deterministic path for the hashed (non-adaptive) modes.
// The result aliases the policy's scratch storage.
func (p *Policy) hashPath(src, dst topo.RouterID, hash uint64, minimal bool) topo.Path {
	// Derive a deterministic RNG from the hash so that different hash values
	// spread over the available paths while identical headers reuse the path.
	// Reseeding the policy's private Rand replays the exact stream a freshly
	// constructed one would produce, without the per-packet allocation.
	seed := int64(hash ^ uint64(src)<<32 ^ uint64(dst))
	if p.hashRng == nil {
		p.hashRng = rand.New(rand.NewSource(seed))
	} else {
		p.hashRng.Seed(seed)
	}
	if minimal {
		p.hashScratch = p.topo.AppendMinimalPath(p.hashScratch[:0], src, dst, p.hashRng)
	} else {
		p.hashScratch = p.topo.AppendNonMinimalPath(p.hashScratch[:0], src, dst, p.hashRng)
	}
	return p.hashScratch
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
		return p.IMBBiasPerHopCycles * int64(1+remaining)
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
	case MinHash:
		path := p.hashPath(src, dst, hash, true)
		return Decision{Path: path, Minimal: true, Cost: PathCost(path, flits, view, now)}
	case NonMinHash:
		path := p.hashPath(src, dst, hash, false)
		return Decision{Path: path, Minimal: false, Cost: PathCost(path, flits, view, now)}
	case InOrder:
		p.hashScratch = p.topo.AppendMinimalPath(p.hashScratch[:0], src, dst, nil)
		path := p.hashScratch
		return Decision{Path: path, Minimal: true, Cost: PathCost(path, flits, view, now)}
	}

	// Adaptive modes: sample candidates and pick the cheapest after bias.
	minimal, nonMinimal := p.topo.SamplePathsInto(&p.pathBuf, src, dst,
		p.params.MinimalCandidates, p.params.NonMinimalCandidates, rng)

	best := Decision{Cost: int64(1) << 62}
	bestIdx := -1
	bestMinHops := topo.MaxMinimalHops
	for _, cand := range minimal {
		if len(cand) < bestMinHops {
			bestMinHops = len(cand)
		}
	}
	for i, cand := range minimal {
		c := PathCost(cand, flits, view, now)
		if c < best.Cost {
			best = Decision{Path: cand, Minimal: true, Cost: c}
			bestIdx = i
		}
	}
	nonMinBias := p.bias(mode, bestMinHops)
	for i, cand := range nonMinimal {
		c := PathCost(cand, flits, view, now) + nonMinBias
		if c < best.Cost {
			best = Decision{Path: cand, Minimal: false, Cost: c}
			bestIdx = len(minimal) + i
		}
	}
	if p.trace != nil {
		p.trace.record(int(p.topo.GroupOf(src)), mode, src, dst, flits, now, view,
			minimal, nonMinimal, bestMinHops, nonMinBias, bestIdx)
	}
	return best
}

// ZeroView is a CongestionView that reports an idle network. It is useful for
// tests and for computing baseline path costs.
type ZeroView struct {
	// Propagation is the constant propagation delay returned for every link.
	Propagation int64
	// CyclesPerFlit is the constant serialization rate returned for every link.
	CyclesPerFlit int64
}

// LinkCost implements CongestionView: no backlog, so the constant
// propagation plus flits times the constant serialization rate.
func (v ZeroView) LinkCost(_ topo.LinkID, flits int, _ int64) int64 {
	return v.Propagation + v.CyclesPerFlit*int64(flits)
}
