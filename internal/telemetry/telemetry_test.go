package telemetry

import (
	"strings"
	"testing"

	"dragonfly/internal/alloc"
	"dragonfly/internal/network"
	"dragonfly/internal/noise"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// testFabric builds a small multi-group fabric.
func testFabric(t testing.TB, groups int, seed int64) *network.Fabric {
	t.Helper()
	tt := topo.MustNew(topo.SmallConfig(groups))
	pol := routing.MustNewPolicy(tt, routing.DefaultParams())
	eng := sim.NewEngine(seed)
	return network.MustNew(eng, tt, pol, network.DefaultConfig())
}

// startTraffic places a uniform background job over all nodes and starts it.
func startTraffic(t testing.TB, f *network.Fabric, until sim.Time, interval int64) *noise.Generator {
	t.Helper()
	a := alloc.MustAllocate(f.Topology(), alloc.GroupStriped, f.Topology().NumNodes(), nil, nil)
	cfg := noise.DefaultGeneratorConfig()
	cfg.IntervalCycles = interval
	g := noise.NewGenerator(f, a.Nodes(), cfg)
	g.Start(until)
	return g
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (Config{IntervalCycles: 0}).Validate(); err == nil {
		t.Fatal("expected error for zero interval")
	}
	if err := (Config{IntervalCycles: 10, TopLinks: -1}).Validate(); err == nil {
		t.Fatal("expected error for negative TopLinks")
	}
}

func TestCollectorSamplesTraffic(t *testing.T) {
	f := testFabric(t, 3, 1)
	const horizon = 500_000
	startTraffic(t, f, horizon, 5_000)
	col := MustNewCollector(f, Config{IntervalCycles: 50_000, TopLinks: 3})
	col.Start(horizon)
	if err := f.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	samples := col.Samples()
	if len(samples) < 5 {
		t.Fatalf("collected %d samples, want >= 5", len(samples))
	}
	var sawFlits, sawHot, sawNIC bool
	for _, s := range samples {
		if s.WindowCycles() == 0 {
			t.Fatal("sample with empty window")
		}
		total := s.Tiers[topo.LinkGlobal].Flits + s.Tiers[topo.LinkIntraGroup].Flits + s.Tiers[topo.LinkIntraChassis].Flits
		if total > 0 {
			sawFlits = true
		}
		if len(s.Hottest) > 0 {
			sawHot = true
			if s.Hottest[0].Utilization < 0 || s.Hottest[0].Utilization > 1 {
				t.Fatalf("hot link utilization out of range: %f", s.Hottest[0].Utilization)
			}
		}
		if s.NIC.RequestPackets > 0 {
			sawNIC = true
		}
		if s.MaxUtilization() < 0 || s.MaxUtilization() > 1 {
			t.Fatalf("max utilization out of range: %f", s.MaxUtilization())
		}
	}
	if !sawFlits || !sawHot || !sawNIC {
		t.Fatalf("samples missed traffic: flits=%v hot=%v nic=%v", sawFlits, sawHot, sawNIC)
	}
}

func TestIntervalDeltasSumToCumulative(t *testing.T) {
	f := testFabric(t, 2, 2)
	const horizon = 300_000
	startTraffic(t, f, horizon, 4_000)
	col := MustNewCollector(f, Config{IntervalCycles: 25_000})
	col.Start(horizon)
	if err := f.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	col.Flush()
	var sampled uint64
	for _, s := range col.Samples() {
		for _, tier := range s.Tiers {
			sampled += tier.Flits
		}
	}
	var cumulative uint64
	for _, l := range f.Topology().Links() {
		cumulative += f.TileCounters(l.ID).FlitsTraversed
	}
	if sampled != cumulative {
		t.Fatalf("interval deltas sum to %d flits, cumulative counters report %d", sampled, cumulative)
	}
}

func TestSeriesAndHotspots(t *testing.T) {
	f := testFabric(t, 2, 3)
	const horizon = 200_000
	startTraffic(t, f, horizon, 2_000)
	col := MustNewCollector(f, DefaultConfig())
	col.Start(horizon)
	if err := f.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"max-util", "mean-global-util", "global-flits", "stall-ratio", "packet-latency"} {
		series, err := col.Series(metric)
		if err != nil {
			t.Fatalf("Series(%q): %v", metric, err)
		}
		if len(series) != len(col.Samples()) {
			t.Fatalf("Series(%q) length %d != samples %d", metric, len(series), len(col.Samples()))
		}
	}
	if _, err := col.Series("bogus"); err == nil {
		t.Fatal("expected error for unknown metric")
	}
	// Threshold 0 marks every sample; an impossible threshold marks none.
	if got := col.HotspotIntervals(0); len(got) != len(col.Samples()) {
		t.Fatalf("threshold 0 marked %d of %d samples", len(got), len(col.Samples()))
	}
	if got := col.HotspotIntervals(2.0); len(got) != 0 {
		t.Fatalf("threshold 2.0 marked %d samples, want 0", len(got))
	}
}

func TestGroupMatrixCapturesInterGroupTraffic(t *testing.T) {
	f := testFabric(t, 3, 4)
	// Send exclusively between two nodes in different groups.
	src := f.Topology().NodesOfRouter(f.Topology().RouterAt(topo.Coord{Group: 0}))[0]
	dst := f.Topology().NodesOfRouter(f.Topology().RouterAt(topo.Coord{Group: 2}))[0]
	col := MustNewCollector(f, Config{IntervalCycles: 10_000})
	col.Start(1 << 30)
	for i := 0; i < 20; i++ {
		if err := f.Send(src, dst, 4096, network.SendOptions{Mode: routing.MinHash}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	col.Stop()
	col.Flush()
	agg := col.AggregateGroupMatrix()
	if agg == nil {
		t.Fatal("group matrix not collected")
	}
	var total, fromG0 uint64
	for i := range agg {
		for j := range agg[i] {
			total += agg[i][j]
			if i == 0 {
				fromG0 += agg[i][j]
			}
		}
	}
	if total == 0 {
		t.Fatal("group matrix recorded no inter-group flits")
	}
	if fromG0 == 0 {
		t.Fatal("minimal routing from group 0 left no trace in row 0 of the matrix")
	}
}

func TestTableAndHeatmapRendering(t *testing.T) {
	f := testFabric(t, 2, 5)
	const horizon = 100_000
	startTraffic(t, f, horizon, 3_000)
	col := MustNewCollector(f, DefaultConfig())
	col.Start(horizon)
	if err := f.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	tab := col.Table("telemetry")
	if got := tab.String(); !strings.Contains(got, "max_util") {
		t.Fatalf("table rendering missing headers:\n%s", got)
	}
	hm := RenderGroupHeatmap(col.AggregateGroupMatrix())
	if !strings.Contains(hm, "group-to-group") {
		t.Fatalf("heatmap rendering unexpected:\n%s", hm)
	}
	if empty := RenderGroupHeatmap(nil); !strings.Contains(empty, "no group traffic") {
		t.Fatalf("empty heatmap rendering unexpected: %q", empty)
	}
}

func TestStopPreventsFurtherSamples(t *testing.T) {
	f := testFabric(t, 2, 6)
	startTraffic(t, f, 200_000, 3_000)
	col := MustNewCollector(f, Config{IntervalCycles: 10_000})
	col.Start(1 << 30)
	f.Engine().After(50_000, col.Stop)
	if err := f.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(col.Samples()); n > 6 {
		t.Fatalf("collected %d samples after Stop at 50k cycles with 10k interval", n)
	}
}

func TestFlushOnIdleFabricAddsNothing(t *testing.T) {
	f := testFabric(t, 2, 7)
	col := MustNewCollector(f, DefaultConfig())
	col.Start(1000)
	col.Flush() // no time has passed
	if len(col.Samples()) != 0 {
		t.Fatalf("flush on idle collector produced %d samples", len(col.Samples()))
	}
}
