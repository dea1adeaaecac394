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
	// PacketBytes is the payload carried per request packet (64 on Aries).
	PacketBytes int
	// PutRequestFlits is the number of request flits per packet. Every
	// message is an RDMA PUT, whose request packets carry the data (§2.1 of
	// the paper: 1 header + 4 payload flits on Aries).
	PutRequestFlits int
	// ResponseFlits is the number of response flits per packet.
	ResponseFlits int
}

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
		PacketBytes:           64,
		PutRequestFlits:       5,
		ResponseFlits:         1,
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
	case c.PacketBytes <= 0:
		return fmt.Errorf("network: PacketBytes must be > 0")
	case c.PutRequestFlits <= 0 || c.ResponseFlits <= 0:
		return fmt.Errorf("network: flits per packet must be > 0")
	case c.LoopbackCyclesPerByte < 0 || c.LoopbackBaseCycles < 0:
		return fmt.Errorf("network: loopback costs must be >= 0")
	}
	return nil
}

// PacketsForSize returns the number of request packets needed to transfer
// size bytes.
func (c Config) PacketsForSize(size int64) int64 {
	if size <= 0 {
		return 1
	}
	return (size + int64(c.PacketBytes) - 1) / int64(c.PacketBytes)
}

// FlitsForSize returns the total number of request flits needed to transfer
// size bytes.
func (c Config) FlitsForSize(size int64) int64 {
	return c.PacketsForSize(size) * int64(c.PutRequestFlits)
}

// propagationFor returns the propagation delay of a link of the given type.
func (c Config) propagationFor(t topo.LinkType) int64 {
	if t == topo.LinkGlobal {
		return c.OpticalPropagation
	}
	return c.ElectricalPropagation
}
