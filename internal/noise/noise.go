// Package noise injects the two kinds of interference the paper separates:
//
//   - network noise: cross traffic generated by other jobs sharing the fabric
//     (uniform random, hotspot/incast, all-to-all "bully" jobs, and bursty
//     filesystem-like traffic), and
//   - host noise: OS noise and node-level contention, modelled as heavy-tailed
//     random delays charged on the host side (used by §3.3 / Figure 4 to show
//     that communication-time variability is not the same thing as network
//     noise).
//
// Generators schedule their own events directly on the simulation engine, so
// they interleave with the measured job's traffic at packet granularity.
package noise

import (
	"fmt"
	"math/rand"

	"dragonfly/internal/alloc"
	"dragonfly/internal/network"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// Pattern selects the communication pattern of a background job.
type Pattern uint8

const (
	// UniformRandom sends each message to a uniformly random peer of the job.
	UniformRandom Pattern = iota
	// Hotspot sends every message to a single victim node (incast).
	Hotspot
	// AlltoallBully makes every node send to every other node round-robin,
	// the "bully job" of the interference literature.
	AlltoallBully
	// Burst alternates long idle periods with intense uniform bursts, like
	// distributed-filesystem or checkpoint traffic.
	Burst
)

// String returns the pattern name.
func (p Pattern) String() string {
	switch p {
	case UniformRandom:
		return "uniform"
	case Hotspot:
		return "hotspot"
	case AlltoallBully:
		return "alltoall-bully"
	case Burst:
		return "burst"
	default:
		return fmt.Sprintf("Pattern(%d)", uint8(p))
	}
}

// ParsePattern converts a pattern name to a Pattern.
func ParsePattern(s string) (Pattern, error) {
	switch s {
	case "uniform":
		return UniformRandom, nil
	case "hotspot":
		return Hotspot, nil
	case "alltoall-bully", "bully":
		return AlltoallBully, nil
	case "burst":
		return Burst, nil
	default:
		return UniformRandom, fmt.Errorf("noise: unknown pattern %q", s)
	}
}

// GeneratorConfig configures a background-traffic job.
type GeneratorConfig struct {
	// Pattern is the communication pattern.
	Pattern Pattern
	// MessageBytes is the size of each generated message.
	MessageBytes int64
	// IntervalCycles is the mean time between messages per node; each
	// interval is randomized by +/- jitterFraction of it.
	IntervalCycles int64
	// BurstIdleCycles is the idle gap of the Burst pattern between bursts of
	// burstLengthMessages messages sent back to back.
	BurstIdleCycles int64
	// Seed seeds the generator's private random stream.
	Seed int64
}

// DefaultGeneratorConfig returns a moderate uniform-random background load.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		Pattern:         UniformRandom,
		MessageBytes:    16 << 10,
		IntervalCycles:  20_000,
		BurstIdleCycles: 400_000,
		Seed:            1,
	}
}

const (
	// jitterFraction randomizes each message interval by +/- this fraction.
	jitterFraction = 0.5
	// burstLengthMessages is the number of messages in one Burst-pattern
	// burst.
	burstLengthMessages = 32
)

// Generator is a background job that keeps injecting traffic until stopped.
// Its messages route with the Adaptive default, as production jobs do.
type Generator struct {
	fabric *network.Fabric
	nodes  []topo.NodeID
	cfg    GeneratorConfig
	rng    *rand.Rand

	running      bool
	stopAt       sim.Time
	messagesSent uint64
}

// NewGenerator builds a background job over the given nodes (usually an
// allocation disjoint from the measured job's). The job needs at least 2
// nodes: with one, a uniform draw never finds a peer and the all-to-all
// pattern has no step. Every caller checks the size first, so a smaller job
// panics as a bug.
func NewGenerator(f *network.Fabric, nodes []topo.NodeID, cfg GeneratorConfig) *Generator {
	if len(nodes) < 2 {
		panic(fmt.Sprintf("noise: generator needs at least 2 nodes, got %d", len(nodes)))
	}
	return &Generator{
		fabric: f,
		nodes:  append([]topo.NodeID(nil), nodes...),
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// FromAllocation builds a generator over an allocation's nodes.
func FromAllocation(f *network.Fabric, a *alloc.Allocation, cfg GeneratorConfig) *Generator {
	return NewGenerator(f, a.Nodes(), cfg)
}

// NumNodes reports how many nodes the background job runs on.
func (g *Generator) NumNodes() int { return len(g.nodes) }

// MessagesSent reports the number of messages injected so far.
func (g *Generator) MessagesSent() uint64 { return g.messagesSent }

// Start schedules traffic generation from the current simulated time until the
// given deadline. It must be called from the simulation goroutine before or
// during a run.
func (g *Generator) Start(until sim.Time) {
	g.running = true
	g.stopAt = until
	for i := range g.nodes {
		g.fabric.Engine().AfterCall(g.nextInterval(), g, int64(i), 0)
	}
}

// HandleEvent implements sim.Handler: per-message generator ticks are typed
// events (a = node index, b = message sequence), so background traffic
// allocates nothing per message.
func (g *Generator) HandleEvent(_ *sim.Engine, idx, seq int64) {
	g.tick(int(idx), uint64(seq))
}

// Stop prevents any further messages from being scheduled.
func (g *Generator) Stop() { g.running = false }

// nextInterval samples the next inter-message gap.
func (g *Generator) nextInterval() int64 {
	j := 1 + jitterFraction*(2*g.rng.Float64()-1)
	v := int64(float64(g.cfg.IntervalCycles) * j)
	if v < 1 {
		v = 1
	}
	return v
}

// destination picks the destination node for a message from nodes[idx].
func (g *Generator) destination(idx int, seq uint64) topo.NodeID {
	switch g.cfg.Pattern {
	case Hotspot:
		// Everybody targets node 0 of the job (unless they are node 0, which
		// targets node 1).
		if idx == 0 {
			return g.nodes[1%len(g.nodes)]
		}
		return g.nodes[0]
	case AlltoallBully:
		step := int(seq)%(len(g.nodes)-1) + 1
		return g.nodes[(idx+step)%len(g.nodes)]
	default: // UniformRandom, Burst
		for {
			d := g.rng.Intn(len(g.nodes))
			if d != idx {
				return g.nodes[d]
			}
		}
	}
}

// tick sends one message (or one burst element) from nodes[idx] and
// reschedules itself.
func (g *Generator) tick(idx int, seq uint64) {
	eng := g.fabric.Engine()
	if !g.running || eng.Now() >= g.stopAt {
		return
	}
	src := g.nodes[idx]
	dst := g.destination(idx, seq)
	if err := g.fabric.Send(src, dst, g.cfg.MessageBytes, network.SendOptions{Mode: routing.Adaptive}, nil); err == nil {
		g.messagesSent++
	}
	next := g.nextInterval()
	if g.cfg.Pattern == Burst {
		if int(seq+1)%burstLengthMessages == 0 {
			next = g.cfg.BurstIdleCycles + g.nextInterval()
		} else {
			// Back-to-back within a burst.
			next = 1 + int64(g.rng.Intn(16))
		}
	}
	eng.AfterCall(next, g, int64(idx), int64(seq+1))
}

// The host-noise profile of the Figure 4 experiment: a mixture of a frequent
// small jitter and a rare long detour (timer ticks vs. kernel daemons), the
// classic heavy-tailed OS-noise profile.
const (
	// hostNoiseMeanCycles is the mean of the frequent, exponential component.
	hostNoiseMeanCycles = 800
	// hostNoiseSpikeCycles is the length of the rare long component, and
	// hostNoiseSpikeProbability the probability that a sample hits it.
	hostNoiseSpikeCycles      = 60_000
	hostNoiseSpikeProbability = 0.02
	// hostNoiseSeed seeds every sampler's private random stream.
	hostNoiseSeed = 7
)

// HostNoise returns a sampler of host-side delays in cycles, with the
// signature mpi.Config.HostNoise expects. Each sampler owns a random stream
// seeded alike, so every sampler draws the same sequence. One sampler may
// serve every rank of a simulated job because the simulation is
// single-threaded.
func HostNoise() func(rank int) int64 {
	rng := rand.New(rand.NewSource(hostNoiseSeed))
	return func(int) int64 {
		d := int64(rng.ExpFloat64() * hostNoiseMeanCycles)
		if rng.Float64() < hostNoiseSpikeProbability {
			d += hostNoiseSpikeCycles
		}
		return d
	}
}
