package dragonfly

// This file is the vocabulary of the facade: aliases and re-exports that let
// applications program against the public package alone. The aliases are real
// type aliases, so values flow freely between the facade and the internal
// packages for code (experiments, scheduler, telemetry) that composes with
// both.

import (
	"dragonfly/internal/alloc"
	"dragonfly/internal/core"
	"dragonfly/internal/counters"
	"dragonfly/internal/mpi"
	"dragonfly/internal/network"
	"dragonfly/internal/noise"
	"dragonfly/internal/routing"
	"dragonfly/internal/stats"
	"dragonfly/internal/topo"
	"dragonfly/internal/workloads"
)

type (
	// Geometry describes a Dragonfly machine shape (groups, chassis, blades,
	// nodes per blade, link widths).
	Geometry = topo.Config
	// RoutingParams configures the UGAL cost model and per-mode biases.
	RoutingParams = routing.Params
	// NetworkConfig configures the fabric (bandwidths, buffering, credits).
	NetworkConfig = network.Config
	// SelectorConfig holds the tunables of the application-aware selector
	// (Algorithm 1 of the paper).
	SelectorConfig = core.Config
	// SelectorStats summarizes what an application-aware selector did.
	SelectorStats = core.Stats
	// Mode is an Aries routing mode (ADAPTIVE_0..3, MIN_HASH, ...).
	Mode = routing.Mode
	// Policy is a job allocation policy.
	Policy = alloc.Policy
	// AllocationClass is the topological distance class of a node pair.
	AllocationClass = topo.AllocationClass
	// NoisePattern is a background-traffic pattern.
	NoisePattern = noise.Pattern
	// Counters is an Aries-style NIC counter snapshot or delta.
	Counters = counters.NIC
	// Delivery describes the completion of one message transfer.
	Delivery = network.Delivery
	// Workload is anything that can run on the ranks of a job.
	Workload = workloads.Workload
	// Rank is the per-process handle workload bodies program against.
	Rank = mpi.Rank
	// RoutingProvider decides the routing mode for each message a rank sends;
	// it is the interposition point of the paper's LD_PRELOAD library.
	RoutingProvider = mpi.RoutingProvider
	// TrafficKind tells the selector what kind of operation a message
	// belongs to.
	TrafficKind = core.TrafficKind
	// NodeID identifies a node of the topology.
	NodeID = topo.NodeID
	// DecisionTrace is the per-group ring buffer of recorded routing
	// decisions installed by WithDecisionTrace; read it back with
	// System.DecisionTrace and score it with the counterfactual package.
	DecisionTrace = routing.DecisionTrace
	// TracedDecision is one recorded adaptive routing decision with its
	// top-k candidate paths and congestion costs at decision time.
	TracedDecision = routing.TracedDecision
	// Summary is the box-plot style description of a sample distribution
	// (median, quartiles, QCD) produced by Result.TimeSummary.
	Summary = stats.Summary
)

// Routing modes, re-exported so applications need not import the routing
// internals. Adaptive is ADAPTIVE_0 (the default), AdaptiveHighBias is
// ADAPTIVE_3 (the paper's "Adaptive with High Bias").
const (
	Adaptive                = routing.Adaptive
	IncreasinglyMinimalBias = routing.IncreasinglyMinimalBias
	AdaptiveLowBias         = routing.AdaptiveLowBias
	AdaptiveHighBias        = routing.AdaptiveHighBias
	MinHash                 = routing.MinHash
	NonMinHash              = routing.NonMinHash
	InOrder                 = routing.InOrder
)

// Allocation policies.
const (
	Contiguous    = alloc.Contiguous
	RandomScatter = alloc.RandomScatter
	GroupStriped  = alloc.GroupStriped
)

// Topological distance classes for AllocatePair.
const (
	SameNode     = topo.AllocSameNode
	InterNodes   = topo.AllocInterNodes
	InterBlades  = topo.AllocInterBlades
	InterChassis = topo.AllocInterChassis
	InterGroups  = topo.AllocInterGroups
)

// Background-noise patterns.
const (
	NoiseUniform = noise.UniformRandom
	NoiseHotspot = noise.Hotspot
	NoiseBully   = noise.AlltoallBully
)

// PointToPoint is the traffic kind of ordinary messages, for RoutingProvider
// implementations and custom workloads.
const PointToPoint = core.PointToPoint

// SmallGeometry returns the reduced geometry used by examples and tests:
// instant to build, still several groups.
func SmallGeometry(groups int) Geometry { return topo.SmallConfig(groups) }

// MediumGeometry is the CLI-tool geometry: the small shape widened to eight
// blades per chassis and four global links per router.
func MediumGeometry(groups int) Geometry {
	cfg := topo.SmallConfig(groups)
	cfg.BladesPerChassis = 8
	cfg.GlobalLinksPerRouter = 4
	return cfg
}

// AriesGeometry returns full-size Aries groups (6 chassis x 16 blades x 4
// nodes), as on Piz Daint or Cori.
func AriesGeometry(groups int) Geometry { return topo.AriesConfig(groups) }

// ParseMode converts an MPICH_GNI_ROUTING_MODE-style string to a Mode.
func ParseMode(s string) (Mode, error) { return routing.ParseMode(s) }

// ParsePolicy converts an allocation-policy name to a Policy.
func ParsePolicy(s string) (Policy, error) { return alloc.ParsePolicy(s) }

// ParseNoisePattern converts a background-pattern name to a NoisePattern.
func ParseNoisePattern(s string) (NoisePattern, error) { return noise.ParsePattern(s) }

// NewWorkload builds a registered workload by name for the given rank count.
func NewWorkload(name string, ranks int, size int64) (Workload, error) {
	return workloads.New(name, ranks, size)
}

// WorkloadNames lists the registered workload names.
func WorkloadNames() []string { return workloads.Names() }

// WorkloadFunc wraps a plain rank program as a named Workload, for custom
// communication patterns that are not in the registry.
func WorkloadFunc(name string, body func(*Rank)) Workload {
	return workloads.Func{WorkloadName: name, Body: body}
}
