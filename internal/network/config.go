// Package network implements a cycle-approximate, packet-granular model of the
// Cray Aries fabric: NIC injection with a bounded outstanding-packet window,
// per-link FIFO serialization with finite input buffers and credit
// back-pressure, per-packet adaptive routing decisions, and the NIC
// performance counters the paper's application-aware routing consumes.
//
// Fidelity notes (see DESIGN.md §5): packets are the unit of simulation; flit
// counts determine serialization times and counter increments, but individual
// flits are not separate events. Congestion information used by the routing
// policy is deliberately stale by a configurable credit delay, reproducing the
// "phantom congestion" phenomenon.
package network

import (
	"fmt"

	"dragonfly/internal/topo"
)

// Config holds the timing and sizing parameters of the fabric model. All times
// are in NIC cycles.
type Config struct {
	// CyclesPerFlit is the serialization time of one flit on a width-1 link.
	// Wider links divide this cost.
	CyclesPerFlit int64
	// ElectricalPropagation is the propagation delay of intra-chassis and
	// intra-group links.
	ElectricalPropagation int64
	// OpticalPropagation is the propagation delay of inter-group (global) links.
	OpticalPropagation int64
	// ProcessorDelay is the NIC <-> router traversal time (processor tiles + PCIe).
	ProcessorDelay int64
	// LoopbackCyclesPerByte is the cost of delivering a message between two
	// ranks on the same node (shared memory copy, no NIC involvement).
	LoopbackCyclesPerByte float64
	// LoopbackBaseCycles is the fixed cost of an on-node delivery.
	LoopbackBaseCycles int64
	// BufferFlits is the input-buffer capacity of each link, in flits; it
	// bounds how far ahead of the downstream link a packet may be accepted
	// (credit flow control).
	BufferFlits int
	// CreditDelay is the age of the congestion information available to the
	// routing pipeline. Larger values increase phantom congestion.
	CreditDelay int64
	// MaxOutstandingPackets is the NIC request window (1024 on Aries).
	MaxOutstandingPackets int
}

// responseFlits is the size of the response each request packet draws. The
// request side's geometry is perfmodel's: every message is an RDMA PUT of
// perfmodel.GeometryForSize packets of perfmodel.PutFlitsPerPacket flits, so
// the selector's Eq. 2 estimates use the geometry the fabric sends.
const responseFlits = 1

// DefaultConfig returns the parameters used by the experiments. The absolute
// values are chosen to give realistic ratios (optical links ~5x electrical
// latency, multi-thousand-cycle end-to-end packet latency) rather than to
// match Aries datasheet numbers.
func DefaultConfig() Config {
	return Config{
		CyclesPerFlit:         4,
		ElectricalPropagation: 100,
		OpticalPropagation:    500,
		ProcessorDelay:        150,
		LoopbackCyclesPerByte: 0.05,
		LoopbackBaseCycles:    400,
		BufferFlits:           64,
		CreditDelay:           600,
		MaxOutstandingPackets: 1024,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.CyclesPerFlit <= 0:
		return fmt.Errorf("network: CyclesPerFlit must be > 0")
	case c.ElectricalPropagation < 0 || c.OpticalPropagation < 0 || c.ProcessorDelay < 0:
		return fmt.Errorf("network: propagation delays must be >= 0")
	case c.BufferFlits <= 0:
		return fmt.Errorf("network: BufferFlits must be > 0")
	case c.CreditDelay < 0:
		return fmt.Errorf("network: CreditDelay must be >= 0")
	case c.MaxOutstandingPackets <= 0:
		return fmt.Errorf("network: MaxOutstandingPackets must be > 0")
	case c.LoopbackCyclesPerByte < 0 || c.LoopbackBaseCycles < 0:
		return fmt.Errorf("network: loopback costs must be >= 0")
	}
	return nil
}

// propagationFor returns the propagation delay of a link of the given type.
func (c Config) propagationFor(t topo.LinkType) int64 {
	if t == topo.LinkGlobal {
		return c.OpticalPropagation
	}
	return c.ElectricalPropagation
}
