// Package core implements the paper's primary contribution: the
// application-aware routing library (§4.2, Algorithm 1). Before every message
// is sent, the Selector decides which Aries routing mode to use — Adaptive
// (the default, no bias) or Adaptive with High Bias — by comparing the
// transmission-time estimates of the performance model (perfmodel, Eq. 2/4)
// under the network conditions (latency L, stall ratio s) observed through the
// NIC counters for the previous messages.
//
// The real implementation interposes on uGNI calls via LD_PRELOAD; here the
// message layer (internal/mpi) calls Select before each transfer and Observe
// after it, which is the same call structure.
package core

import (
	"fmt"

	"dragonfly/internal/counters"
	"dragonfly/internal/perfmodel"
	"dragonfly/internal/routing"
)

// TrafficKind tells the selector what kind of operation a message belongs to.
// Alltoall traffic replaces the Adaptive default with Increasingly Minimal
// Bias, mirroring Cray's MPICH_GNI_A2A_ROUTING_MODE default.
type TrafficKind uint8

const (
	// PointToPoint is ordinary point-to-point or generic collective traffic.
	PointToPoint TrafficKind = iota
	// Alltoall is traffic belonging to an all-to-all exchange.
	Alltoall
)

// String returns the kind name.
func (k TrafficKind) String() string {
	if k == Alltoall {
		return "alltoall"
	}
	return "point-to-point"
}

// Config holds the tunables of Algorithm 1.
type Config struct {
	// ThresholdBytes is the cumulative message-size threshold below which the
	// algorithm is not evaluated (and Adaptive with High Bias is used), to
	// amortize the cost of reading network counters. The paper sets 4 KiB.
	ThresholdBytes int64
	// LambdaAdaptiveToBias (λ_ad) scales the latency observed under Adaptive
	// to estimate the latency under Adaptive with High Bias when no recent
	// observation of the latter exists.
	LambdaAdaptiveToBias float64
	// SigmaAdaptiveToBias (σ_ad) scales the stall ratio observed under
	// Adaptive to estimate the stall ratio under Adaptive with High Bias.
	SigmaAdaptiveToBias float64
	// LambdaBiasToAdaptive and SigmaBiasToAdaptive are the scaling factors for
	// the dual direction (estimating Adaptive from High Bias observations).
	LambdaBiasToAdaptive float64
	SigmaBiasToAdaptive  float64
	// StalenessDecisions is the number of selector invocations after which a
	// stored observation of the non-current routing mode is considered stale
	// and re-derived through the scaling factors, so that the algorithm does
	// not rely on data from a different application phase.
	StalenessDecisions int
	// CounterReadOverheadCycles models the host-side cost of reading the NIC
	// counters through PAPI; it is charged every time the algorithm is
	// evaluated (the paper identifies this overhead as the cause of the
	// 1 KiB-alltoall performance drop).
	CounterReadOverheadCycles int64
	// SwitchConfirmations is the number of consecutive evaluations that must
	// prefer the other routing mode before the selector actually switches.
	// The paper's algorithm corresponds to 1 (switch immediately); §5.1
	// observes that this can oscillate on some workloads (broadcast of large
	// messages, sweep3d), and values > 1 implement the hysteresis extension
	// this reproduction adds to damp those oscillations.
	SwitchConfirmations int
}

// DefaultConfig returns the configuration used in the paper's evaluation.
// The scaling factors encode the paper's observation that Adaptive with High
// Bias typically shows lower packet latency (fewer non-minimal detours) but a
// higher per-flit stall ratio (less congestion spreading) than Adaptive.
func DefaultConfig() Config {
	return Config{
		ThresholdBytes:            4 << 10,
		LambdaAdaptiveToBias:      0.8,
		SigmaAdaptiveToBias:       1.6,
		LambdaBiasToAdaptive:      1.25,
		SigmaBiasToAdaptive:       0.625,
		StalenessDecisions:        64,
		CounterReadOverheadCycles: 300,
		SwitchConfirmations:       1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.ThresholdBytes < 0:
		return fmt.Errorf("core: ThresholdBytes must be >= 0")
	case c.LambdaAdaptiveToBias <= 0 || c.SigmaAdaptiveToBias <= 0 ||
		c.LambdaBiasToAdaptive <= 0 || c.SigmaBiasToAdaptive <= 0:
		return fmt.Errorf("core: scaling factors must be > 0")
	case c.StalenessDecisions <= 0:
		return fmt.Errorf("core: StalenessDecisions must be > 0")
	case c.CounterReadOverheadCycles < 0:
		return fmt.Errorf("core: CounterReadOverheadCycles must be >= 0")
	case c.SwitchConfirmations < 0:
		return fmt.Errorf("core: SwitchConfirmations must be >= 0")
	}
	return nil
}

// Decision is the outcome of one Select call.
type Decision struct {
	// Mode is the routing mode to use for the message.
	Mode routing.Mode
	// Evaluated reports whether Algorithm 1 ran (and counters must be read
	// after the message completes).
	Evaluated bool
	// OverheadCycles is the host-side cost to charge for this decision.
	OverheadCycles int64
}

// observation is the last known network state under one routing mode.
type observation struct {
	params   perfmodel.Params
	decision uint64 // selector invocation index at which it was recorded
	valid    bool
}

// Stats summarizes what the selector has done so far.
type Stats struct {
	// Messages and Bytes total everything routed through the selector.
	Messages uint64
	Bytes    uint64
	// DefaultMessages/DefaultBytes were sent with the default adaptive mode
	// (Adaptive, or Increasingly Minimal Bias for alltoall); BiasMessages/
	// BiasBytes with Adaptive with High Bias.
	DefaultMessages uint64
	DefaultBytes    uint64
	BiasMessages    uint64
	BiasBytes       uint64
	// Evaluations counts how many times Algorithm 1 ran; CounterReads counts
	// how many counter snapshots were taken (one per evaluated message).
	Evaluations  uint64
	CounterReads uint64
	// Switches counts routing-mode changes.
	Switches uint64
}

// Add accumulates another selector's statistics into s, for aggregating the
// per-rank selectors of one job.
func (s *Stats) Add(other Stats) {
	s.Messages += other.Messages
	s.Bytes += other.Bytes
	s.DefaultMessages += other.DefaultMessages
	s.DefaultBytes += other.DefaultBytes
	s.BiasMessages += other.BiasMessages
	s.BiasBytes += other.BiasBytes
	s.Evaluations += other.Evaluations
	s.CounterReads += other.CounterReads
	s.Switches += other.Switches
}

// DefaultTrafficFraction returns the fraction of bytes sent using the default
// adaptive routing (the percentage reported under each bar of the paper's
// Figures 8-10).
func (s Stats) DefaultTrafficFraction() float64 {
	if s.Bytes == 0 {
		return 0
	}
	return float64(s.DefaultBytes) / float64(s.Bytes)
}

// Selector implements Algorithm 1. It is not safe for concurrent use: in the
// paper the library state is per process (per NIC), and here it is owned by a
// single simulated rank.
type Selector struct {
	cfg Config

	current   routing.Mode
	adaptive  observation // state observed under Adaptive (or IMB for alltoall)
	bias      observation // state observed under Adaptive with High Bias
	decisions uint64

	// pendingMode/pendingCount implement the optional switch hysteresis: a
	// mode change is only committed after SwitchConfirmations consecutive
	// evaluations prefer the other mode.
	pendingMode  routing.Mode
	pendingCount int

	cumulativeBytes int64
	stats           Stats
}

// New returns a Selector with the given configuration. The application starts
// in Adaptive mode, as in the paper.
func New(cfg Config) (*Selector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Selector{cfg: cfg, current: routing.Adaptive}, nil
}

// MustNew is like New but panics on an invalid configuration.
func MustNew(cfg Config) *Selector {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the selector configuration.
func (s *Selector) Config() Config { return s.cfg }

// Current returns the routing mode the selector is currently in.
func (s *Selector) Current() routing.Mode { return s.current }

// Stats returns a copy of the selector statistics.
func (s *Selector) Stats() Stats { return s.stats }

// defaultMode returns the "default" adaptive mode for the traffic kind:
// Increasingly Minimal Bias for all-to-all traffic, as Cray MPICH does, and
// Adaptive otherwise.
func (s *Selector) defaultMode(kind TrafficKind) routing.Mode {
	if kind == Alltoall {
		return routing.IncreasinglyMinimalBias
	}
	return routing.Adaptive
}

// isStale reports whether an observation is too old to be trusted.
func (s *Selector) isStale(o observation) bool {
	if !o.valid {
		return true
	}
	return s.decisions-o.decision > uint64(s.cfg.StalenessDecisions)
}

// Select decides the routing mode for the next message of msgSize bytes
// belonging to the given traffic kind. It implements the selectRouting
// function of Algorithm 1.
func (s *Selector) Select(msgSize int64, kind TrafficKind) Decision {
	s.decisions++
	s.stats.Messages++
	s.stats.Bytes += uint64(msgSize)
	def := s.defaultMode(kind)

	// Below the cumulative threshold the algorithm is not evaluated and the
	// message goes out with Adaptive with High Bias (small messages are
	// latency-bound and High Bias usually has the lower latency).
	s.cumulativeBytes += msgSize
	if s.cumulativeBytes < s.cfg.ThresholdBytes {
		s.account(routing.AdaptiveHighBias, def, msgSize)
		return Decision{Mode: routing.AdaptiveHighBias}
	}
	s.cumulativeBytes = 0
	s.stats.Evaluations++

	g := perfmodel.GeometryForSize(msgSize)
	prev := s.current
	var next routing.Mode
	if s.current != routing.AdaptiveHighBias {
		// Currently on the default adaptive mode: its observation is fresh;
		// the High-Bias observation may need to be re-derived via λ_ad, σ_ad.
		ad := s.adaptive
		if s.isStale(s.bias) && ad.valid {
			s.bias = observation{
				params: perfmodel.Params{
					LatencyCycles: ad.params.LatencyCycles * s.cfg.LambdaAdaptiveToBias,
					StallRatio:    ad.params.StallRatio * s.cfg.SigmaAdaptiveToBias,
				},
				decision: s.decisions,
				valid:    true,
			}
		}
		if ad.valid && s.bias.valid && perfmodel.PreferB(g, ad.params, s.bias.params) {
			next = routing.AdaptiveHighBias
		} else {
			next = def
		}
	} else {
		// Currently on High Bias: dual branch of Algorithm 1.
		bs := s.bias
		if s.isStale(s.adaptive) && bs.valid {
			s.adaptive = observation{
				params: perfmodel.Params{
					LatencyCycles: bs.params.LatencyCycles * s.cfg.LambdaBiasToAdaptive,
					StallRatio:    bs.params.StallRatio * s.cfg.SigmaBiasToAdaptive,
				},
				decision: s.decisions,
				valid:    true,
			}
		}
		if bs.valid && s.adaptive.valid && perfmodel.PreferB(g, bs.params, s.adaptive.params) {
			next = def
		} else {
			next = routing.AdaptiveHighBias
		}
	}
	next = s.applyHysteresis(prev, next)
	s.current = next
	if next != prev {
		s.stats.Switches++
	}
	s.account(next, def, msgSize)
	return Decision{Mode: next, Evaluated: true, OverheadCycles: s.cfg.CounterReadOverheadCycles}
}

// applyHysteresis damps mode oscillations: the raw preference must persist for
// SwitchConfirmations consecutive evaluations before it replaces the current
// mode. With the default of 1 this is a no-op and the behaviour matches
// Algorithm 1 exactly.
func (s *Selector) applyHysteresis(current, preferred routing.Mode) routing.Mode {
	if s.cfg.SwitchConfirmations <= 1 {
		return preferred
	}
	if preferred == current {
		s.pendingCount = 0
		return current
	}
	if s.pendingMode == preferred {
		s.pendingCount++
	} else {
		s.pendingMode = preferred
		s.pendingCount = 1
	}
	if s.pendingCount >= s.cfg.SwitchConfirmations {
		s.pendingCount = 0
		return preferred
	}
	return current
}

// account updates the per-mode traffic statistics.
func (s *Selector) account(mode, def routing.Mode, msgSize int64) {
	if mode == routing.AdaptiveHighBias {
		s.stats.BiasMessages++
		s.stats.BiasBytes += uint64(msgSize)
		return
	}
	if mode == def || mode == routing.Adaptive || mode == routing.IncreasinglyMinimalBias {
		s.stats.DefaultMessages++
		s.stats.DefaultBytes += uint64(msgSize)
	}
}

// Observe records the NIC counter delta measured after a message was sent with
// the given routing mode. Only messages whose Decision.Evaluated was true need
// to be observed (counters are read only for them), but observing every
// message is also correct.
func (s *Selector) Observe(mode routing.Mode, delta counters.NIC) {
	if delta.RequestPackets == 0 {
		return
	}
	s.stats.CounterReads++
	o := observation{
		params:   perfmodel.ParamsFromCounters(delta),
		decision: s.decisions,
		valid:    true,
	}
	if mode == routing.AdaptiveHighBias {
		s.bias = o
	} else {
		s.adaptive = o
	}
}

// ObservedParams returns the currently stored model parameters for the two
// modes and whether each is valid. It is exported for tests, experiment
// logging and ablation studies.
func (s *Selector) ObservedParams() (adaptive perfmodel.Params, adaptiveValid bool, bias perfmodel.Params, biasValid bool) {
	return s.adaptive.params, s.adaptive.valid, s.bias.params, s.bias.valid
}
