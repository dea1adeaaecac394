// Package patternaware implements a traffic-pattern-based routing-mode
// selector, modelled on the related-work alternative the paper contrasts
// itself with (traffic-pattern-based adaptive routing, which picks a bias for
// the adaptive routing after classifying the recent traffic pattern). It
// serves as a baseline comparator for the paper's counter-model-driven
// application-aware selector: both decide per message between the Adaptive
// default and Adaptive with High Bias, but this one reasons only about the
// shape and volume of the application's own traffic, not about the measured
// latency/stall trade-off.
package patternaware

import (
	"fmt"

	"dragonfly/internal/core"
	"dragonfly/internal/network"
	"dragonfly/internal/routing"
)

// Class is the classifier's view of the recent traffic pattern.
type Class uint8

const (
	// Light means the application recently sent little data; latency dominates
	// and minimally-biased routing is preferred.
	Light Class = iota
	// HeavyCongested means the application is sending a lot of data and its
	// packets are experiencing back-pressure; congestion is real, so the
	// unbiased adaptive mode (free to take non-minimal paths) is preferred.
	HeavyCongested
	// HeavySmooth means the application is sending a lot of data but packets
	// flow without noticeable stalls; minimally-biased routing keeps the extra
	// traffic off non-minimal paths.
	HeavySmooth
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Light:
		return "light"
	case HeavyCongested:
		return "heavy-congested"
	case HeavySmooth:
		return "heavy-smooth"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// The classifier's thresholds.
const (
	// windowSizeBytes is the amount of recently sent payload over which the
	// pattern is classified; once the window fills, a new classification is
	// made and the window restarts.
	windowSizeBytes = 64 << 10
	// heavyMeanMessageBytes separates Light from the two heavy classes: a
	// window whose mean message size reaches this value counts as heavy.
	heavyMeanMessageBytes = 8 << 10
	// stallThreshold is the per-flit stall ratio above which a heavy pattern
	// counts as congested.
	stallThreshold = 0.5
	// ewmaAlpha is the smoothing factor applied to the observed stall ratio.
	ewmaAlpha = 0.3
	// counterReadOverheadCycles is the host-side cost charged whenever the
	// classifier consumes a counter observation.
	counterReadOverheadCycles = 300
)

// Stats summarizes the classifier's behaviour for experiment reporting.
type Stats struct {
	// Messages and Bytes total everything routed through the classifier.
	Messages uint64
	Bytes    uint64
	// Classifications counts how many times the window filled and the pattern
	// was re-classified; PerClass breaks the classifications down.
	Classifications uint64
	PerClass        [3]uint64
	// DefaultBytes and BiasBytes split the traffic by the chosen mode, with
	// the same meaning as core.Stats.
	DefaultBytes uint64
	BiasBytes    uint64
}

// Classifier selects routing modes from the recent traffic pattern. It
// implements mpi.RoutingProvider and is owned by a single rank.
type Classifier struct {
	windowBytes    int64
	windowMessages int64
	stallEWMA      float64
	haveStall      bool

	current Class
	stats   Stats
}

// New builds a classifier. The initial class is Light (prefer low latency), so
// an application that never fills the window behaves like a statically
// high-biased one.
func New() *Classifier { return &Classifier{current: Light} }

// Current returns the current traffic class.
func (c *Classifier) Current() Class { return c.current }

// Stats returns a copy of the classifier statistics.
func (c *Classifier) Stats() Stats { return c.stats }

// modeFor maps the traffic class to a routing mode.
func (c *Classifier) modeFor(class Class, kind core.TrafficKind) routing.Mode {
	switch class {
	case HeavyCongested:
		// Alltoall traffic takes the Cray default, Increasingly Minimal Bias.
		if kind == core.Alltoall {
			return routing.IncreasinglyMinimalBias
		}
		return routing.Adaptive
	default: // Light, HeavySmooth
		return routing.AdaptiveHighBias
	}
}

// SelectMode implements the per-message routing decision: accumulate the
// window, re-classify when it fills, and return the mode mapped from the
// current class. The returned observe callback feeds the NIC counter delta of
// the message back into the stall estimate.
func (c *Classifier) SelectMode(msgSize int64, kind core.TrafficKind) (routing.Mode, int64, func(network.Delivery)) {
	c.stats.Messages++
	c.stats.Bytes += uint64(msgSize)
	c.windowBytes += msgSize
	c.windowMessages++

	var overhead int64
	if c.windowBytes >= windowSizeBytes {
		meanMsg := c.windowBytes / c.windowMessages
		var class Class
		switch {
		case meanMsg < heavyMeanMessageBytes:
			class = Light
		case c.haveStall && c.stallEWMA >= stallThreshold:
			class = HeavyCongested
		default:
			class = HeavySmooth
		}
		c.current = class
		c.stats.Classifications++
		c.stats.PerClass[class]++
		c.windowBytes = 0
		c.windowMessages = 0
		overhead = counterReadOverheadCycles
	}

	mode := c.modeFor(c.current, kind)
	if mode == routing.AdaptiveHighBias {
		c.stats.BiasBytes += uint64(msgSize)
	} else {
		c.stats.DefaultBytes += uint64(msgSize)
	}
	observe := func(d network.Delivery) {
		s := d.Counters.StallRatio()
		if !c.haveStall {
			c.stallEWMA = s
			c.haveStall = true
			return
		}
		c.stallEWMA = ewmaAlpha*s + (1-ewmaAlpha)*c.stallEWMA
	}
	return mode, overhead, observe
}
