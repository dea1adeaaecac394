package msglog

import (
	"bytes"
	"path/filepath"
	"sort"
	"testing"

	"dragonfly/internal/alloc"
	"dragonfly/internal/core"
	"dragonfly/internal/mpi"
	"dragonfly/internal/network"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
	"dragonfly/internal/workloads"
)

// capture runs a workload on n ranks with a log attached and returns the log
// and the fabric it was captured on.
func capture(t *testing.T, w workloads.Workload, n int, seed int64) (*Log, *network.Fabric) {
	t.Helper()
	tt := topo.MustNew(topo.SmallConfig(3))
	pol := routing.MustNewPolicy(tt, routing.DefaultParams())
	eng := sim.NewEngine(seed)
	fab := network.MustNew(eng, tt, pol, network.DefaultConfig())
	a := alloc.MustAllocate(tt, alloc.GroupStriped, n, nil, nil)
	c := mpi.MustNewComm(fab, a, mpi.Config{})
	log := NewLog()
	log.Attach(fab)
	if err := runComm(c, w.Run); err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	for i := 0; i < n; i++ {
		if err := c.Rank(i).Err(); err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	return log, fab
}

// runComm runs program on every rank of c to completion, on a scheduler of
// its own.
func runComm(c *mpi.Comm, program func(*mpi.Rank)) error {
	s := mpi.NewScheduler(c.Fabric().Engine())
	defer s.Shutdown()
	if err := c.Start(s, program); err != nil {
		return err
	}
	return s.Run(nil)
}

func TestLogCapturesAlltoall(t *testing.T) {
	const n = 6
	log, _ := capture(t, &workloads.Alltoall{MessageBytes: 1024, Iterations: 1}, n, 1)
	// Pairwise alltoall: every ordered pair exchanges exactly one message.
	want := n * (n - 1)
	if log.Len() != want {
		t.Fatalf("captured %d records, want %d", log.Len(), want)
	}
	if log.TotalBytes() != int64(want)*1024 {
		t.Fatalf("captured %d bytes, want %d", log.TotalBytes(), int64(want)*1024)
	}
	for _, r := range log.Records() {
		if r.Src == r.Dst {
			t.Fatalf("self-message recorded: %+v", r)
		}
		if r.TransmissionCycles() <= 0 {
			t.Fatalf("non-positive transmission time: %+v", r)
		}
		if r.MinimalFraction < 0 || r.MinimalFraction > 1 {
			t.Fatalf("minimal fraction out of range: %+v", r)
		}
	}
}

func TestTrafficMatrixAndHistogram(t *testing.T) {
	log, _ := capture(t, &workloads.Alltoall{MessageBytes: 2048, Iterations: 1}, 4, 2)
	// The node-to-node byte matrix of the records: every ordered pair of the
	// four ranks carries one 2 KiB message.
	matrix := make(map[topo.NodeID]map[topo.NodeID]int64)
	for _, r := range log.Records() {
		if matrix[r.Src] == nil {
			matrix[r.Src] = make(map[topo.NodeID]int64)
		}
		matrix[r.Src][r.Dst] += r.Size
	}
	if len(matrix) != 4 {
		t.Fatalf("traffic matrix has %d source rows, want 4", len(matrix))
	}
	for src, row := range matrix {
		if len(row) != 3 {
			t.Fatalf("source %d exchanged with %d peers, want 3", src, len(row))
		}
		for dst, bytes := range row {
			if bytes != 2048 {
				t.Fatalf("pair %d->%d carried %d bytes, want 2048", src, dst, bytes)
			}
		}
	}
	bounds, counts := log.SizeHistogram(64)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != log.Len() {
		t.Fatalf("histogram counts sum to %d, want %d", total, log.Len())
	}
	if len(bounds) != len(counts) {
		t.Fatalf("bounds/counts length mismatch: %d vs %d", len(bounds), len(counts))
	}
	if lats := log.Latencies(); len(lats) == 0 {
		t.Fatal("no latencies recorded")
	}
}

// TestSizeHistogramBucketing pins the bucketing fix: bucket idx covers
// [bounds[idx], bounds[idx+1]), so a size strictly between two bounds lands in
// the LOWER bucket and an exact bound starts its own bucket. The old scan
// compared against the current (lower) bound and pushed in-between sizes one
// bucket too high.
func TestSizeHistogramBucketing(t *testing.T) {
	cases := []struct {
		name    string
		minSize int64
		sizes   []int64
		bounds  []int64
		counts  []int
	}{
		{
			name:    "between-bounds stays in lower bucket",
			minSize: 1,
			sizes:   []int64{3}, // bounds [1,2,4]: 3 ∈ [2,4) → bucket 1, not 2
			bounds:  []int64{1, 2, 4},
			counts:  []int{0, 1, 0},
		},
		{
			name:    "exact bound opens its bucket",
			minSize: 1,
			sizes:   []int64{1, 2, 4},
			bounds:  []int64{1, 2, 4},
			counts:  []int{1, 1, 1},
		},
		{
			name:    "mixed exact and between",
			minSize: 2,
			sizes:   []int64{2, 3, 4, 5, 7, 8},
			bounds:  []int64{2, 4, 8},
			counts:  []int{2, 3, 1},
		},
		{
			name:    "below minSize clamps into first bucket",
			minSize: 4,
			sizes:   []int64{1, 4, 6, 9},
			bounds:  []int64{4, 8, 16},
			counts:  []int{3, 1, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := NewLog()
			for _, s := range tc.sizes {
				log.records = append(log.records, Record{Size: s})
			}
			bounds, counts := log.SizeHistogram(tc.minSize)
			if len(bounds) != len(tc.bounds) || len(counts) != len(tc.counts) {
				t.Fatalf("got bounds %v counts %v, want bounds %v counts %v",
					bounds, counts, tc.bounds, tc.counts)
			}
			for i := range bounds {
				if bounds[i] != tc.bounds[i] || counts[i] != tc.counts[i] {
					t.Fatalf("bucket %d: got (%d, %d), want (%d, %d)",
						i, bounds[i], counts[i], tc.bounds[i], tc.counts[i])
				}
			}
		})
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	log, _ := capture(t, &workloads.PingPong{MessageBytes: 4096, Iterations: 3}, 2, 4)
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != log.Len() {
		t.Fatalf("round trip produced %d records, want %d", len(records), log.Len())
	}
	for i, r := range records {
		if r != log.Records()[i] {
			t.Fatalf("record %d changed in round trip: %+v vs %+v", i, r, log.Records()[i])
		}
	}
}

func TestSaveLoadJSONLFile(t *testing.T) {
	log, _ := capture(t, &workloads.Alltoall{MessageBytes: 512, Iterations: 1}, 4, 5)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := log.SaveJSONL(path); err != nil {
		t.Fatal(err)
	}
	records, err := LoadJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != log.Len() {
		t.Fatalf("loaded %d records, want %d", len(records), log.Len())
	}
	if _, err := LoadJSONL(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewBufferString("{not json}\n")); err == nil {
		t.Fatal("expected error for malformed line")
	}
}

func TestReplayReproducesTraffic(t *testing.T) {
	log, _ := capture(t, &workloads.Alltoall{MessageBytes: 1024, Iterations: 1}, 6, 6)

	// Replay the captured trace onto a fresh fabric under a different routing
	// mode and capture it again.
	tt := topo.MustNew(topo.SmallConfig(3))
	pol := routing.MustNewPolicy(tt, routing.DefaultParams())
	eng := sim.NewEngine(7)
	fab := network.MustNew(eng, tt, pol, network.DefaultConfig())
	replayLog := NewLog()
	replayLog.Attach(fab)
	scheduled, err := Replay(fab, log.Records(), ReplayOptions{Mode: routing.AdaptiveHighBias})
	if err != nil {
		t.Fatal(err)
	}
	if scheduled != log.Len() {
		t.Fatalf("scheduled %d messages, want %d", scheduled, log.Len())
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if replayLog.Len() != log.Len() {
		t.Fatalf("replay delivered %d messages, want %d", replayLog.Len(), log.Len())
	}
	if replayLog.TotalBytes() != log.TotalBytes() {
		t.Fatalf("replay moved %d bytes, original %d", replayLog.TotalBytes(), log.TotalBytes())
	}
}

func TestReplayOnAnotherMachineWithScale(t *testing.T) {
	log, _ := capture(t, &workloads.PingPong{MessageBytes: 2048, Iterations: 2}, 2, 8)
	tt := topo.MustNew(topo.SmallConfig(2))
	pol := routing.MustNewPolicy(tt, routing.DefaultParams())
	eng := sim.NewEngine(9)
	fab := network.MustNew(eng, tt, pol, network.DefaultConfig())

	// Move the original endpoints onto nodes of the smaller machine.
	records := append([]Record(nil), log.Records()...)
	for i := range records {
		records[i].Src %= topo.NodeID(tt.NumNodes())
		records[i].Dst %= topo.NodeID(tt.NumNodes())
	}
	replayLog := NewLog()
	replayLog.Attach(fab)
	if _, err := Replay(fab, records, ReplayOptions{Mode: routing.MinHash, TimeScale: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if replayLog.Len() != log.Len() {
		t.Fatalf("replay delivered %d messages, want %d", replayLog.Len(), log.Len())
	}
}

func TestReplayRejectsOutOfRangeEndpoints(t *testing.T) {
	tt := topo.MustNew(topo.SmallConfig(2))
	pol := routing.MustNewPolicy(tt, routing.DefaultParams())
	eng := sim.NewEngine(10)
	fab := network.MustNew(eng, tt, pol, network.DefaultConfig())
	records := []Record{{Src: 0, Dst: topo.NodeID(tt.NumNodes() + 5), Size: 64}}
	if _, err := Replay(fab, records, ReplayOptions{}); err == nil {
		t.Fatal("expected error for out-of-range endpoint")
	}
}

func TestReplayOutOfRangeReportsScheduledPrefix(t *testing.T) {
	tt := topo.MustNew(topo.SmallConfig(2))
	pol := routing.MustNewPolicy(tt, routing.DefaultParams())
	eng := sim.NewEngine(14)
	fab := network.MustNew(eng, tt, pol, network.DefaultConfig())
	bad := topo.NodeID(tt.NumNodes())
	records := []Record{
		{Src: 0, Dst: 1, Size: 64},
		{Src: 0, Dst: bad, Size: 64}, // first invalid record
		{Src: 1, Dst: 0, Size: 64},
	}
	n, err := Replay(fab, records, ReplayOptions{})
	if err == nil {
		t.Fatal("expected error for out-of-range endpoint")
	}
	if n != 1 {
		t.Fatalf("scheduled count is %d, want 1 (records before the invalid one)", n)
	}
}

func TestReplayTimeScaleCompressionPreservesSendOrder(t *testing.T) {
	tt := topo.MustNew(topo.SmallConfig(2))
	pol := routing.MustNewPolicy(tt, routing.DefaultParams())
	eng := sim.NewEngine(15)
	fab := network.MustNew(eng, tt, pol, network.DefaultConfig())

	// Distinct sizes identify the messages; send times are far apart so the
	// 0.1x compression still leaves distinct post times.
	records := []Record{
		{Src: 0, Dst: 1, Size: 64, SendStart: 1000},
		{Src: 0, Dst: 1, Size: 128, SendStart: 2000},
		{Src: 0, Dst: 1, Size: 256, SendStart: 9000},
	}
	replayLog := NewLog()
	replayLog.Attach(fab)
	if _, err := Replay(fab, records, ReplayOptions{TimeScale: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if replayLog.Len() != len(records) {
		t.Fatalf("replay delivered %d messages, want %d", replayLog.Len(), len(records))
	}
	got := append([]Record(nil), replayLog.Records()...)
	sort.Slice(got, func(i, j int) bool { return got[i].SendStart < got[j].SendStart })
	for i, want := range []int64{64, 128, 256} {
		if got[i].Size != want {
			t.Fatalf("send order not preserved under compression: position %d is %d bytes, want %d (%v)",
				i, got[i].Size, want, got)
		}
	}
	// Compression by 0.1 shrinks the 8000-cycle span to 800.
	span := got[2].SendStart - got[0].SendStart
	if span != 800 {
		t.Fatalf("compressed send span is %d cycles, want 800", span)
	}
}

// TestReplayDeliveryOrderedOffsets replays records in delivery order, where
// the first record was posted after the others, as a captured log holds
// them. Every message must be posted at its offset from the earliest
// SendStart, scaled by TimeScale; none may be clamped to the start.
func TestReplayDeliveryOrderedOffsets(t *testing.T) {
	records := []Record{
		{Src: 0, Dst: 1, Size: 64, SendStart: 5000, DeliveredAt: 5600},
		{Src: 2, Dst: 3, Size: 128, SendStart: 1000, DeliveredAt: 9000},
		{Src: 4, Dst: 5, Size: 256, SendStart: 3000, DeliveredAt: 9500},
	}
	for _, scale := range []float64{1, 0.5, 3} {
		tt := topo.MustNew(topo.SmallConfig(2))
		pol := routing.MustNewPolicy(tt, routing.DefaultParams())
		eng := sim.NewEngine(16)
		fab := network.MustNew(eng, tt, pol, network.DefaultConfig())
		if err := eng.RunUntil(700); err != nil { // replay from a nonzero "now"
			t.Fatal(err)
		}
		start := eng.Now()
		replayLog := NewLog()
		replayLog.Attach(fab)
		if _, err := Replay(fab, records, ReplayOptions{TimeScale: scale}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		posted := make(map[int64]sim.Time) // size -> replayed SendStart
		for _, r := range replayLog.Records() {
			posted[r.Size] = r.SendStart
		}
		for _, r := range records {
			want := start + sim.Time(float64(r.SendStart-1000)*scale)
			if got, ok := posted[r.Size]; !ok || got != want {
				t.Fatalf("scale %v: %d-byte message posted at %d (replayed: %v), want %d",
					scale, r.Size, got, ok, want)
			}
		}
	}
}

func TestReplayEmptyTraceIsNoop(t *testing.T) {
	tt := topo.MustNew(topo.SmallConfig(2))
	pol := routing.MustNewPolicy(tt, routing.DefaultParams())
	eng := sim.NewEngine(11)
	fab := network.MustNew(eng, tt, pol, network.DefaultConfig())
	n, err := Replay(fab, nil, ReplayOptions{})
	if err != nil || n != 0 {
		t.Fatalf("empty replay returned (%d, %v)", n, err)
	}
}

func TestObserverSeesAppAwareTraffic(t *testing.T) {
	// The observer must also see traffic routed through the application-aware
	// selector (the per-message hook and the observer are independent).
	tt := topo.MustNew(topo.SmallConfig(3))
	pol := routing.MustNewPolicy(tt, routing.DefaultParams())
	eng := sim.NewEngine(12)
	fab := network.MustNew(eng, tt, pol, network.DefaultConfig())
	a := alloc.MustAllocate(tt, alloc.GroupStriped, 4, nil, nil)
	c := mpi.MustNewComm(fab, a, mpi.Config{
		Routing: func(int) mpi.RoutingProvider {
			return mpi.AppAwareRouting{Selector: core.MustNew(core.DefaultConfig())}
		},
	})
	log := NewLog()
	log.Attach(fab)
	if err := runComm(c, func(r *mpi.Rank) { r.Alltoall(8192) }); err != nil {
		t.Fatal(err)
	}
	if log.Len() == 0 {
		t.Fatal("observer saw no traffic from the application-aware communicator")
	}
	log.Detach(fab)
}
