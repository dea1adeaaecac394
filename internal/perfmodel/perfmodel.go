// Package perfmodel implements the LogP-inspired transmission-time model of
// §2.4 of the paper. Given the NIC counters (average packet latency L and
// average per-flit stall ratio s) and the message geometry (number of flits f
// and packets p, derived from the message size), the model estimates the time
// the network needs to move the message:
//
//	T_msg ≈ (p + 512)/1024 · L + f · (s + 1)            (Eq. 2)
//
// which reduces to L/2 + f·(s+1) (Eq. 1) when the message fits in the NIC's
// 1024 outstanding-packet window. The application-aware routing algorithm
// compares this quantity under the two candidate routing modes to decide how
// to route the next message.
package perfmodel

import (
	"fmt"

	"dragonfly/internal/counters"
)

// Geometry describes how a message maps onto packets and flits.
type Geometry struct {
	// Flits is the number of request flits of the message (f in the paper).
	Flits int64
	// Packets is the number of request packets of the message (p in the paper).
	Packets int64
}

// PacketBytes is the payload carried by one Aries request packet.
const PacketBytes = 64

// PutFlitsPerPacket is the request flits per packet of an RDMA PUT, the verb
// that moves MPI payloads (1 header + 4 payload flits).
const PutFlitsPerPacket = 5

// WindowPackets is the maximum number of outstanding packets an Aries NIC
// supports; beyond this, transmission serializes on response reception.
const WindowPackets = 1024

// GeometryForSize returns the packet/flit geometry of a message of the given
// size transferred with a PUT. The fabric packetizes every message with it,
// so the model estimates the geometry the fabric sends.
func GeometryForSize(sizeBytes int64) Geometry {
	if sizeBytes < 0 {
		sizeBytes = 0
	}
	packets := (sizeBytes + PacketBytes - 1) / PacketBytes
	if packets == 0 {
		packets = 1
	}
	return Geometry{Flits: packets * PutFlitsPerPacket, Packets: packets}
}

// Params are the network-state inputs of the model, normally obtained from NIC
// counter deltas.
type Params struct {
	// LatencyCycles is L, the average request-response packet latency.
	LatencyCycles float64
	// StallRatio is s, the average number of stall cycles per request flit.
	StallRatio float64
}

// ParamsFromCounters extracts L and s from a counter delta.
func ParamsFromCounters(delta counters.NIC) Params {
	return Params{
		LatencyCycles: delta.AvgPacketLatency(),
		StallRatio:    delta.StallRatio(),
	}
}

// Validate reports whether the parameters are physically meaningful.
func (p Params) Validate() error {
	if p.LatencyCycles < 0 {
		return fmt.Errorf("perfmodel: negative latency %f", p.LatencyCycles)
	}
	if p.StallRatio < 0 {
		return fmt.Errorf("perfmodel: negative stall ratio %f", p.StallRatio)
	}
	return nil
}

// EstimateCycles returns the Eq. 2 estimate of the transmission time of a
// message with geometry g under network conditions p, in NIC cycles.
func EstimateCycles(g Geometry, p Params) float64 {
	window := (float64(g.Packets) + float64(WindowPackets)/2) / float64(WindowPackets)
	return window*p.LatencyCycles + float64(g.Flits)*(p.StallRatio+1)
}

// EstimateSimpleCycles returns the Eq. 1 estimate (no window term), valid when
// the message fits within the outstanding-packet window.
func EstimateSimpleCycles(g Geometry, p Params) float64 {
	return p.LatencyCycles/2 + float64(g.Flits)*(p.StallRatio+1)
}

// EstimateForSize is a convenience wrapper estimating the transfer time of a
// PUT message of the given size.
func EstimateForSize(sizeBytes int64, p Params) float64 {
	return EstimateCycles(GeometryForSize(sizeBytes), p)
}

// CrossoverFlits evaluates Eq. 4 of the paper,
//
//	f* = (L_a - L_b) / (s_b - s_a) · (p + 512)/1024,
//
// the flit count at which the preferred routing mode switches between "a"
// (typically Adaptive) and "b" (typically Adaptive with High Bias).
//
// When a finite crossover exists, exists is true and preferBForSmall reports
// which side of the crossover prefers mode b: true means b wins below f*
// (the usual case: b has lower latency but more stalls), false means b wins
// above f* (b has fewer stalls but higher latency). When no finite crossover
// exists, exists is false and preferBForSmall reports whether b is preferred
// at every message size.
func CrossoverFlits(a, b Params, packets int64) (flits float64, preferBForSmall bool, exists bool) {
	dL := a.LatencyCycles - b.LatencyCycles // > 0 when b has lower latency
	dS := b.StallRatio - a.StallRatio       // > 0 when b has more stalls
	window := (float64(packets) + float64(WindowPackets)/2) / float64(WindowPackets)
	switch {
	case dS == 0:
		return 0, dL > 0, false
	case dS > 0:
		f := dL / dS * window
		if f <= 0 {
			return 0, false, false // b never wins
		}
		return f, true, true
	default: // dS < 0: b has fewer stalls
		f := dL / dS * window
		if f <= 0 {
			return 0, true, false // b always wins
		}
		return f, false, true
	}
}

// PreferB reports whether the model predicts that sending a message of the
// given geometry with mode "b" parameters is faster than with mode "a"
// parameters. It is the comparison of Eq. 3.
func PreferB(g Geometry, a, b Params) bool {
	return EstimateCycles(g, b) < EstimateCycles(g, a)
}
