// Package telemetry provides fabric-wide performance-counter collection, in
// the spirit of the monitoring infrastructures discussed in the paper's
// related work (network-wide counter collection and congestion visualization
// on Cray XC systems). A Collector samples every router tile and every NIC at
// a fixed period of simulated time and keeps per-interval deltas, so that
// experiments can answer questions the cumulative counters cannot: when did a
// tier saturate, which group pair carried the interfering traffic, how did the
// stall rate evolve while a job was running.
//
// The paper itself warns (§2.3, §3.2) that tile counters mix traffic from all
// jobs and must not be used to attribute noise to a cause; the collector is a
// system-operator view, complementing the per-NIC counters the
// application-aware selector relies on.
package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"dragonfly/internal/counters"
	"dragonfly/internal/network"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
	"dragonfly/internal/trace"
)

// Config configures a Collector.
type Config struct {
	// IntervalCycles is the sampling period.
	IntervalCycles int64
	// TopLinks is the number of hottest links recorded per sample (0 disables
	// the per-sample hot list).
	TopLinks int
}

// DefaultConfig returns a collector configuration with a moderate sampling
// rate suitable for the experiments in this repository.
func DefaultConfig() Config {
	return Config{IntervalCycles: 50_000, TopLinks: 4}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.IntervalCycles <= 0 {
		return fmt.Errorf("telemetry: IntervalCycles must be > 0")
	}
	if c.TopLinks < 0 {
		return fmt.Errorf("telemetry: TopLinks must be >= 0")
	}
	return nil
}

// TierSample aggregates the traffic of one link tier during one interval.
type TierSample struct {
	// Flits and StalledCycles are the interval deltas summed over the tier.
	Flits         uint64
	StalledCycles uint64
	// MeanUtilization and MaxUtilization are computed over the tier's links
	// for the interval.
	MeanUtilization float64
	MaxUtilization  float64
}

// HotLink identifies a link and its utilization during one interval.
type HotLink struct {
	Link        topo.Link
	Utilization float64
	Flits       uint64
}

// Sample is the collector's record of one interval.
type Sample struct {
	// Start and End delimit the interval in simulated time.
	Start, End sim.Time
	// Tiers holds per-tier aggregates indexed by topo.LinkType.
	Tiers [3]TierSample
	// NIC is the interval delta summed over every NIC in the system.
	NIC counters.NIC
	// Hottest lists the most utilized links of the interval (configurable).
	Hottest []HotLink
	// GroupMatrix[src][dst] is the number of flits carried by global links from
	// group src to group dst during the interval.
	GroupMatrix [][]uint64
}

// WindowCycles returns the length of the interval.
func (s Sample) WindowCycles() uint64 { return uint64(s.End - s.Start) }

// MaxUtilization returns the highest per-link utilization seen in the sample
// across all tiers.
func (s Sample) MaxUtilization() float64 {
	max := 0.0
	for _, t := range s.Tiers {
		if t.MaxUtilization > max {
			max = t.MaxUtilization
		}
	}
	return max
}

// Collector periodically samples the fabric's counters.
type Collector struct {
	fabric *network.Fabric
	cfg    Config

	running bool
	stopAt  sim.Time

	prevTiles []counters.Tile
	prevNIC   counters.NIC
	lastAt    sim.Time

	samples []Sample
}

// NewCollector builds a collector for the fabric.
func NewCollector(f *network.Fabric, cfg Config) (*Collector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Collector{
		fabric:    f,
		cfg:       cfg,
		prevTiles: make([]counters.Tile, f.Topology().NumLinks()),
	}, nil
}

// MustNewCollector is like NewCollector but panics on error.
func MustNewCollector(f *network.Fabric, cfg Config) *Collector {
	c, err := NewCollector(f, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Samples returns the samples collected so far. The caller must not modify the
// returned slice.
func (c *Collector) Samples() []Sample { return c.samples }

// Start begins periodic sampling from the current simulated time until the
// given deadline. The baseline for the first interval is taken at Start.
func (c *Collector) Start(until sim.Time) {
	eng := c.fabric.Engine()
	c.running = true
	c.stopAt = until
	c.lastAt = eng.Now()
	c.snapshotBaseline()
	eng.After(c.cfg.IntervalCycles, c.tick)
}

// Stop prevents further samples from being scheduled.
func (c *Collector) Stop() { c.running = false }

// snapshotBaseline records the current cumulative counters as the baseline of
// the next interval.
func (c *Collector) snapshotBaseline() {
	t := c.fabric.Topology()
	for i := 0; i < t.NumLinks(); i++ {
		c.prevTiles[i] = c.fabric.TileCounters(topo.LinkID(i))
	}
	c.prevNIC = c.totalNIC()
}

// totalNIC sums the NIC counters of every node.
func (c *Collector) totalNIC() counters.NIC {
	var total counters.NIC
	t := c.fabric.Topology()
	for n := 0; n < t.NumNodes(); n++ {
		total.Add(c.fabric.NodeCounters(topo.NodeID(n)))
	}
	return total
}

// tick records one sample and reschedules itself.
func (c *Collector) tick() {
	eng := c.fabric.Engine()
	if !c.running {
		return
	}
	c.record()
	if eng.Now() >= c.stopAt {
		c.running = false
		return
	}
	eng.After(c.cfg.IntervalCycles, c.tick)
}

// Flush records a final partial sample covering the time since the last tick.
// It is useful when the workload finishes between sampling points.
func (c *Collector) Flush() {
	if c.fabric.Engine().Now() > c.lastAt {
		c.record()
	}
}

// record computes the interval deltas and appends a sample.
func (c *Collector) record() {
	t := c.fabric.Topology()
	now := c.fabric.Engine().Now()
	window := uint64(now - c.lastAt)
	if window == 0 {
		return
	}
	s := Sample{Start: c.lastAt, End: now}
	g := t.Config().Groups
	s.GroupMatrix = make([][]uint64, g)
	for i := range s.GroupMatrix {
		s.GroupMatrix[i] = make([]uint64, g)
	}

	type linkUtil struct {
		link topo.Link
		u    float64
		f    uint64
	}
	var hot []linkUtil
	perTier := [3]struct {
		links int
		sum   float64
	}{}
	for _, l := range t.Links() {
		cur := c.fabric.TileCounters(l.ID)
		delta := cur.Sub(c.prevTiles[l.ID])
		c.prevTiles[l.ID] = cur
		u := delta.Utilization(window)
		ts := &s.Tiers[l.Type]
		ts.Flits += delta.FlitsTraversed
		ts.StalledCycles += delta.StalledCycles
		if u > ts.MaxUtilization {
			ts.MaxUtilization = u
		}
		perTier[l.Type].links++
		perTier[l.Type].sum += u
		if c.cfg.TopLinks > 0 && delta.FlitsTraversed > 0 {
			hot = append(hot, linkUtil{link: l, u: u, f: delta.FlitsTraversed})
		}
		if l.Type == topo.LinkGlobal {
			src := int(t.GroupOf(l.Src))
			dst := int(t.GroupOf(l.Dst))
			s.GroupMatrix[src][dst] += delta.FlitsTraversed
		}
	}
	for i := range s.Tiers {
		if perTier[i].links > 0 {
			s.Tiers[i].MeanUtilization = perTier[i].sum / float64(perTier[i].links)
		}
	}
	if c.cfg.TopLinks > 0 {
		sort.Slice(hot, func(i, j int) bool {
			if hot[i].u != hot[j].u {
				return hot[i].u > hot[j].u
			}
			return hot[i].link.ID < hot[j].link.ID
		})
		n := c.cfg.TopLinks
		if n > len(hot) {
			n = len(hot)
		}
		for _, h := range hot[:n] {
			s.Hottest = append(s.Hottest, HotLink{Link: h.link, Utilization: h.u, Flits: h.f})
		}
	}

	nicNow := c.totalNIC()
	s.NIC = nicNow.Sub(c.prevNIC)
	c.prevNIC = nicNow
	c.lastAt = now
	c.samples = append(c.samples, s)
}

// Series extracts one named metric from every sample. Supported metrics:
// "max-util", "mean-global-util", "global-flits", "stall-ratio",
// "packet-latency".
func (c *Collector) Series(metric string) ([]float64, error) {
	out := make([]float64, 0, len(c.samples))
	for _, s := range c.samples {
		switch metric {
		case "max-util":
			out = append(out, s.MaxUtilization())
		case "mean-global-util":
			out = append(out, s.Tiers[topo.LinkGlobal].MeanUtilization)
		case "global-flits":
			out = append(out, float64(s.Tiers[topo.LinkGlobal].Flits))
		case "stall-ratio":
			out = append(out, s.NIC.StallRatio())
		case "packet-latency":
			out = append(out, s.NIC.AvgPacketLatency())
		default:
			return nil, fmt.Errorf("telemetry: unknown metric %q", metric)
		}
	}
	return out, nil
}

// HotspotIntervals returns the indices of samples whose maximum link
// utilization reaches the threshold (a congestion-event detector).
func (c *Collector) HotspotIntervals(threshold float64) []int {
	var out []int
	for i, s := range c.samples {
		if s.MaxUtilization() >= threshold {
			out = append(out, i)
		}
	}
	return out
}

// AggregateGroupMatrix sums the group-to-group flit matrices over all samples.
// It returns nil when there are no samples.
func (c *Collector) AggregateGroupMatrix() [][]uint64 {
	var agg [][]uint64
	for _, s := range c.samples {
		if agg == nil {
			agg = make([][]uint64, len(s.GroupMatrix))
			for i := range agg {
				agg[i] = make([]uint64, len(s.GroupMatrix[i]))
			}
		}
		for i := range s.GroupMatrix {
			for j := range s.GroupMatrix[i] {
				agg[i][j] += s.GroupMatrix[i][j]
			}
		}
	}
	return agg
}

// Table converts the sample series into a result table (one row per interval)
// for CSV export and experiment output.
func (c *Collector) Table(title string) *trace.Table {
	t := trace.NewTable(title,
		"start", "end", "max_util", "global_mean_util", "global_flits",
		"intragroup_flits", "intrachassis_flits", "stall_ratio", "packet_latency")
	for _, s := range c.samples {
		t.AddRow(s.Start, s.End, s.MaxUtilization(),
			s.Tiers[topo.LinkGlobal].MeanUtilization,
			s.Tiers[topo.LinkGlobal].Flits,
			s.Tiers[topo.LinkIntraGroup].Flits,
			s.Tiers[topo.LinkIntraChassis].Flits,
			s.NIC.StallRatio(), s.NIC.AvgPacketLatency())
	}
	return t
}

// RenderGroupHeatmap renders a group-to-group traffic matrix as a small ASCII
// heatmap: each cell is a digit 0-9 proportional to the cell's share of the
// maximum cell, '.' for zero.
func RenderGroupHeatmap(matrix [][]uint64) string {
	if len(matrix) == 0 {
		return "(no group traffic recorded)\n"
	}
	var max uint64
	for _, row := range matrix {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "group-to-group flits (max cell = %d)\n     ", max)
	for j := range matrix {
		fmt.Fprintf(&b, "g%-3d", j)
	}
	b.WriteString("\n")
	for i, row := range matrix {
		fmt.Fprintf(&b, "g%-3d ", i)
		for _, v := range row {
			if v == 0 || max == 0 {
				b.WriteString(".   ")
				continue
			}
			level := int(9 * float64(v) / float64(max))
			fmt.Fprintf(&b, "%-4d", level)
		}
		b.WriteString("\n")
	}
	return b.String()
}
