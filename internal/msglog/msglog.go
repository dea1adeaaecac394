// Package msglog provides fabric-wide communication tracing and trace-driven
// replay. A Log attaches to the fabric's delivery observer and records every
// completed message transfer (endpoints, size, timing, per-message NIC counter
// deltas); the trace can be summarized (traffic matrix, size histogram,
// latency distribution), saved and loaded as JSON Lines, and replayed onto a
// fresh fabric as an open-loop traffic source. Trace-driven replay is the
// standard methodology of the interconnect-simulation literature the paper
// positions itself against, and it lets a communication pattern captured once
// be re-examined under different routing modes or topologies.
package msglog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"dragonfly/internal/network"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// Record is one captured message transfer.
type Record struct {
	// Src and Dst are the endpoint nodes.
	Src topo.NodeID `json:"src"`
	Dst topo.NodeID `json:"dst"`
	// Size is the payload size in bytes.
	Size int64 `json:"size"`
	// SendStart and DeliveredAt are the posting and delivery times in cycles.
	SendStart   sim.Time `json:"send_start"`
	DeliveredAt sim.Time `json:"delivered_at"`
	// LatencyCycles is the average request-response packet latency of the
	// message and StallRatio its per-flit stall ratio (0 for loopback).
	LatencyCycles float64 `json:"latency_cycles"`
	StallRatio    float64 `json:"stall_ratio"`
	// MinimalFraction is the share of the message's packets routed minimally.
	MinimalFraction float64 `json:"minimal_fraction"`
}

// TransmissionCycles returns the delivery time minus the posting time.
func (r Record) TransmissionCycles() int64 { return r.DeliveredAt - r.SendStart }

// Log captures delivery records from a fabric.
type Log struct {
	records []Record
	// MaxRecords bounds the log size; 0 means unbounded. Once reached, further
	// deliveries are counted but not stored.
	MaxRecords int
	dropped    uint64

	obsID network.ObserverID
}

// NewLog returns an empty log. Attach it with Attach.
func NewLog() *Log { return &Log{} }

// Attach registers the log as one of the fabric's delivery observers. It
// coexists with other observers (per-job delivery capture during a concurrent
// run, telemetry), so a fabric-wide trace can be taken while jobs record
// their own deliveries.
func (l *Log) Attach(f *network.Fabric) { l.obsID = f.AddDeliveryObserver(l.observe) }

// Detach removes the log's delivery observer from the fabric.
func (l *Log) Detach(f *network.Fabric) {
	f.RemoveDeliveryObserver(l.obsID)
	l.obsID = 0
}

// observe converts a delivery into a record.
func (l *Log) observe(d network.Delivery) {
	if l.MaxRecords > 0 && len(l.records) >= l.MaxRecords {
		l.dropped++
		return
	}
	minFrac := 0.0
	if d.Counters.RequestPackets > 0 {
		minFrac = float64(d.Counters.MinimalPackets) / float64(d.Counters.RequestPackets)
	}
	l.records = append(l.records, Record{
		Src:             d.Src,
		Dst:             d.Dst,
		Size:            d.Size,
		SendStart:       d.SendStart,
		DeliveredAt:     d.DeliveredAt,
		LatencyCycles:   d.Counters.AvgPacketLatency(),
		StallRatio:      d.Counters.StallRatio(),
		MinimalFraction: minFrac,
	})
}

// Records returns the captured records in delivery order. The caller must not
// modify the returned slice.
func (l *Log) Records() []Record { return l.records }

// Len returns the number of stored records.
func (l *Log) Len() int { return len(l.records) }

// Dropped returns the number of deliveries discarded because MaxRecords was
// reached.
func (l *Log) Dropped() uint64 { return l.dropped }

// TotalBytes sums the payload bytes of every stored record.
func (l *Log) TotalBytes() int64 {
	var total int64
	for _, r := range l.records {
		total += r.Size
	}
	return total
}

// TrafficMatrix builds the node-to-node byte matrix of the trace, keyed by
// source node then destination node. Only node pairs that exchanged data
// appear.
func (l *Log) TrafficMatrix() map[topo.NodeID]map[topo.NodeID]int64 {
	out := make(map[topo.NodeID]map[topo.NodeID]int64)
	for _, r := range l.records {
		row, ok := out[r.Src]
		if !ok {
			row = make(map[topo.NodeID]int64)
			out[r.Src] = row
		}
		row[r.Dst] += r.Size
	}
	return out
}

// SizeHistogram buckets message sizes by powers of two starting at minSize and
// returns the bucket lower bounds and counts.
func (l *Log) SizeHistogram(minSize int64) (bounds []int64, counts []int) {
	if minSize < 1 {
		minSize = 1
	}
	var maxSize int64
	for _, r := range l.records {
		if r.Size > maxSize {
			maxSize = r.Size
		}
	}
	for b := minSize; ; b *= 2 {
		bounds = append(bounds, b)
		if b >= maxSize {
			break
		}
	}
	counts = make([]int, len(bounds))
	for _, r := range l.records {
		// Advance while the size reaches the NEXT bucket's lower bound: a size
		// strictly between two bounds stays in the lower bucket (bucket idx
		// covers [bounds[idx], bounds[idx+1])). Scanning against the current
		// bound instead used to push in-between sizes one bucket too high.
		idx := 0
		for idx < len(bounds)-1 && r.Size >= bounds[idx+1] {
			idx++
		}
		counts[idx]++
	}
	return bounds, counts
}

// Latencies returns the per-message average packet latency series, sorted
// ascending, for distribution analysis.
func (l *Log) Latencies() []float64 {
	out := make([]float64, 0, len(l.records))
	for _, r := range l.records {
		if r.LatencyCycles > 0 {
			out = append(out, r.LatencyCycles)
		}
	}
	sort.Float64s(out)
	return out
}

// WriteJSONL writes the trace as one JSON object per line.
func (l *Log) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range l.records {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveJSONL writes the trace to a file, syncing it to stable storage before
// returning so a crash right after a successful save cannot lose the capture.
func (l *Log) SaveJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := l.WriteJSONL(f); err != nil {
		return err
	}
	return f.Sync()
}

// ReadJSONL parses a trace previously written with WriteJSONL.
func ReadJSONL(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("msglog: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// LoadJSONL reads a trace from a file.
func LoadJSONL(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSONL(f)
}

// ReplayOptions configure a trace replay.
type ReplayOptions struct {
	// Mode is the routing mode replayed messages use.
	Mode routing.Mode
	// TimeScale stretches (>1) or compresses (<1) the original inter-send
	// gaps; 0 means 1.0 (original pacing).
	TimeScale float64
	// NodeMap remaps trace nodes onto the target fabric's nodes; nil replays
	// onto the original node ids (which must exist on the target topology).
	NodeMap map[topo.NodeID]topo.NodeID
}

// Replay schedules every record of the trace onto the fabric as an open-loop
// source: each message is posted at its original SendStart relative to the
// earliest SendStart of the trace, scaled by TimeScale, regardless of when
// earlier messages complete. The records may come in any order — a captured
// Log holds them in delivery order, where a message posted early can follow
// one posted later. It returns the number of messages scheduled and an error
// if any endpoint falls outside the target topology.
func Replay(f *network.Fabric, records []Record, opts ReplayOptions) (int, error) {
	if len(records) == 0 {
		return 0, nil
	}
	scale := opts.TimeScale
	if scale <= 0 {
		scale = 1
	}
	mapNode := func(n topo.NodeID) topo.NodeID {
		if opts.NodeMap != nil {
			if m, ok := opts.NodeMap[n]; ok {
				return m
			}
		}
		return n
	}
	base := records[0].SendStart
	for _, r := range records[1:] {
		base = min(base, r.SendStart)
	}
	total := f.Topology().NumNodes()
	now := f.Engine().Now()
	scheduled := 0
	for _, r := range records {
		src, dst := mapNode(r.Src), mapNode(r.Dst)
		if int(src) < 0 || int(src) >= total || int(dst) < 0 || int(dst) >= total {
			return scheduled, fmt.Errorf("msglog: record endpoint %d->%d outside the target topology (%d nodes)",
				src, dst, total)
		}
		offset := sim.Time(float64(r.SendStart-base) * scale)
		size := r.Size
		f.Engine().Schedule(now+offset, func() {
			// Errors are impossible here: endpoints were validated above and
			// sizes come from previously delivered messages.
			_ = f.Send(src, dst, size, network.SendOptions{Mode: opts.Mode}, nil)
		})
		scheduled++
	}
	return scheduled, nil
}
