package dragonfly

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"dragonfly/internal/network"
	"dragonfly/internal/routing"
	"dragonfly/internal/topo"
)

// The geometry ladder: four standard machine shapes spanning unit-test scale
// to a full Piz-Daint-class system, each roughly an order of magnitude bigger
// than the previous rung. Pass a rung straight to WithGeometry:
//
//	sys, err := dragonfly.New(dragonfly.WithGeometry(dragonfly.Daint))
//
// The values are package variables only so they can be spelled without
// parentheses; treat them as read-only.
var (
	// Small is the unit-test rung: 4 reduced groups, 64 nodes.
	Small = SmallGeometry(4)
	// Medium is the CLI-default rung: 6 widened groups, 192 nodes.
	Medium = MediumGeometry(6)
	// Large is the paper's Piz Daint allocation of Figure 8: 6 full Aries
	// groups, 576 routers, 2304 nodes.
	Large = AriesGeometry(6)
	// Daint is the machine-scale rung, sized like the full Piz Daint system:
	// 14 full Aries groups, 1344 routers, 5376 nodes. The compact
	// topology/link-state arenas exist so this rung simulates on a laptop.
	Daint = AriesGeometry(14)
)

// GeometryRung names one rung of the geometry ladder.
type GeometryRung struct {
	// Name is the rung's ladder name ("small" ... "daint").
	Name string
	// Geometry is the machine shape of the rung.
	Geometry Geometry
}

// GeometryLadder returns the standard rungs in ascending size order. The
// slice is freshly allocated; callers may reorder or truncate it.
func GeometryLadder() []GeometryRung {
	return []GeometryRung{
		{Name: "small", Geometry: Small},
		{Name: "medium", Geometry: Medium},
		{Name: "large", Geometry: Large},
		{Name: "daint", Geometry: Daint},
	}
}

// ParseGeometry maps a command-line geometry name to a machine shape: a
// ladder rung ("small", "medium", "large", "daint"), or a parameterized
// preset with an explicit group count — "small:N", "medium:N", "aries:N".
// Names are case-insensitive.
func ParseGeometry(s string) (Geometry, error) {
	name, suffix, hasGroups := strings.Cut(strings.ToLower(strings.TrimSpace(s)), ":")
	groups := 0
	if hasGroups {
		n, err := strconv.Atoi(suffix)
		if err != nil || n < 1 {
			return Geometry{}, fmt.Errorf("dragonfly: bad group count %q in geometry %q", suffix, s)
		}
		groups = n
	}
	var g Geometry
	switch name {
	case "small":
		if !hasGroups {
			groups = Small.Groups
		}
		g = SmallGeometry(groups)
	case "medium":
		if !hasGroups {
			groups = Medium.Groups
		}
		g = MediumGeometry(groups)
	case "aries":
		if !hasGroups {
			return Geometry{}, fmt.Errorf("dragonfly: geometry %q needs a group count (aries:N)", s)
		}
		g = AriesGeometry(groups)
	case "large", "daint":
		if hasGroups {
			return Geometry{}, fmt.Errorf("dragonfly: ladder rung %q takes no group count (use aries:N)", name)
		}
		if name == "large" {
			g = Large
		} else {
			g = Daint
		}
	default:
		return Geometry{}, fmt.Errorf("dragonfly: unknown geometry %q (want small, medium, large, daint, small:N, medium:N or aries:N)", s)
	}
	if err := g.Validate(); err != nil {
		return Geometry{}, err
	}
	return g, nil
}

// config is the resolved set of options a System is built from.
type config struct {
	geometry      Geometry
	routing       RoutingParams
	network       NetworkConfig
	seed          int64
	shards        int
	decisionTrace int
	noise         *NoiseConfig
	telemetry     *TelemetryConfig
}

// defaultConfig mirrors the library defaults every consumer used to spell out
// by hand.
func defaultConfig() config {
	return config{
		geometry: topo.SmallConfig(4),
		routing:  routing.DefaultParams(),
		network:  network.DefaultConfig(),
		seed:     1,
		shards:   1,
	}
}

// Option configures a System under construction.
type Option func(*config) error

// WithGeometry selects the Dragonfly geometry (groups, chassis, blades,
// nodes, link widths). See SmallGeometry, MediumGeometry and AriesGeometry
// for the standard shapes.
func WithGeometry(g Geometry) Option {
	return func(c *config) error {
		if err := g.Validate(); err != nil {
			return err
		}
		c.geometry = g
		return nil
	}
}

// WithRouting overrides the UGAL routing parameters (candidate counts and the
// per-mode bias levels).
func WithRouting(p RoutingParams) Option {
	return func(c *config) error {
		if err := p.Validate(); err != nil {
			return err
		}
		c.routing = p
		return nil
	}
}

// WithNetworkConfig overrides the fabric configuration (link bandwidths,
// buffering, credit delays, packetization).
func WithNetworkConfig(n NetworkConfig) Option {
	return func(c *config) error {
		if err := n.Validate(); err != nil {
			return err
		}
		c.network = n
		return nil
	}
}

// WithSeed sets the seed every random stream of the system derives from: the
// event engine, the allocation RNG and the background-noise generators.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithShards enables the intra-run parallel event engine: the machine is
// partitioned by dragonfly group into n shards with their own event heaps,
// advanced together in conservative lookahead windows (the minimum global-link
// latency bounds how far any shard can run ahead). Output is byte-identical
// to the serial engine at every shard count — same seed, same counters, same
// telemetry stream — so sharding is purely a wall-clock knob.
//
// n = 0 selects automatic sizing (GOMAXPROCS). Whatever is requested is
// clamped to the number of dragonfly groups, and single-group geometries fall
// back to the serial engine (there is no cross-group lookahead to exploit).
func WithShards(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("dragonfly: WithShards needs n >= 0 (0 = auto), got %d", n)
		}
		c.shards = n
		return nil
	}
}

// WithDecisionTrace enables the routing decision recorder: every adaptive
// routing decision is captured with its top-k candidate paths and their
// congestion costs at decision time, into one preallocated ring per dragonfly
// group (so sharded runs stay deterministic and recording never allocates).
// Read the trace back with System.DecisionTrace and score it with the
// counterfactual package. Tracing observes the selection — it never changes
// which path is routed — and is off by default; the disabled cost is one nil
// check per routed packet.
func WithDecisionTrace(k int) Option {
	return func(c *config) error {
		if k < 1 {
			return fmt.Errorf("dragonfly: WithDecisionTrace needs k >= 1, got %d", k)
		}
		if k > routing.MaxDecisionCandidates {
			return fmt.Errorf("dragonfly: WithDecisionTrace %d exceeds the maximum %d", k, routing.MaxDecisionCandidates)
		}
		c.decisionTrace = k
		return nil
	}
}

// ParseDecisionTrace maps a command-line -decision-trace flag to a
// WithDecisionTrace argument: "", "off" and "0" disable tracing (return 0),
// "on" selects the default k, otherwise "N" or "k=N".
func ParseDecisionTrace(s string) (int, error) {
	return routing.ParseDecisionTrace(s)
}

// ParseShards maps a command-line shard-count flag to a WithShards argument:
// "auto" (or the empty string) selects automatic sizing, otherwise a positive
// integer. Names are case-insensitive.
func ParseShards(s string) (int, error) {
	v := strings.ToLower(strings.TrimSpace(s))
	if v == "" || v == "auto" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("dragonfly: bad shard count %q (want auto or a positive integer)", s)
	}
	return n, nil
}

// resolveShards turns the configured shard request into the effective shard
// count for a machine with the given number of groups and lookahead bound.
func resolveShards(requested, groups int, lookahead int64) int {
	if requested == 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	if requested > groups {
		requested = groups
	}
	if groups < 2 || lookahead <= 0 {
		return 1
	}
	if requested < 1 {
		return 1
	}
	return requested
}

// WithNoise declares a background interfering job. It is started when the
// first job is allocated, on nodes disjoint from that job, exactly like an
// explicit System.StartNoise call at that point. The generator is a
// fixed-rate synthetic stand-in; to measure against *real* co-running
// applications, allocate neighbor jobs and run everything through
// System.RunConcurrent instead.
func WithNoise(cfg NoiseConfig) Option {
	return func(c *config) error {
		if cfg.Nodes < 2 {
			return fmt.Errorf("dragonfly: WithNoise needs at least 2 nodes, got %d", cfg.Nodes)
		}
		spec := cfg
		c.noise = &spec
		return nil
	}
}

// WithTelemetry installs a fabric-wide telemetry collector, started at
// construction; read it back with System.Telemetry.
func WithTelemetry(cfg TelemetryConfig) Option {
	return func(c *config) error {
		spec := cfg
		c.telemetry = &spec
		return nil
	}
}
