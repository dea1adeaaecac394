package noise

import (
	"testing"
	"testing/quick"

	"dragonfly/internal/alloc"
	"dragonfly/internal/network"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

func testFabric(t testing.TB, seed int64) (*network.Fabric, *topo.Topology, *sim.Engine) {
	t.Helper()
	tt := topo.MustNew(topo.SmallConfig(3))
	pol := routing.MustNewPolicy(tt, routing.DefaultParams())
	eng := sim.NewEngine(seed)
	return network.MustNew(eng, tt, pol, network.DefaultConfig()), tt, eng
}

func jobNodes(tt *topo.Topology, n int) []topo.NodeID {
	out := make([]topo.NodeID, n)
	for i := range out {
		out[i] = topo.NodeID(i)
	}
	return out
}

func TestPatternStringsAndParse(t *testing.T) {
	for _, p := range []Pattern{UniformRandom, Hotspot, AlltoallBully, Burst} {
		s := p.String()
		if s == "" {
			t.Fatal("empty pattern string")
		}
		back, err := ParsePattern(s)
		if err != nil || back != p {
			t.Fatalf("ParsePattern(%q) = %v, %v", s, back, err)
		}
	}
	if _, err := ParsePattern("nope"); err == nil {
		t.Fatal("expected error for unknown pattern")
	}
	if Pattern(99).String() == "" {
		t.Fatal("unknown pattern must format")
	}
}

// TestGeneratorRejectsTinyJobs: a one-node generator would never find a
// uniform peer and divide by zero in the all-to-all pattern, so building one
// from a one-node allocation panics.
func TestGeneratorRejectsTinyJobs(t *testing.T) {
	f, tt, _ := testFabric(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("FromAllocation built a single-node generator")
		}
	}()
	FromAllocation(f, alloc.MustAllocate(tt, alloc.Contiguous, 1, nil, nil), DefaultGeneratorConfig())
}

// TestMustNewGeneratorPanics: NewGenerator has no error to return, so a
// one-node job is a caller bug and panics.
func TestMustNewGeneratorPanics(t *testing.T) {
	f, tt, _ := testFabric(t, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("NewGenerator built a single-node generator")
		}
	}()
	NewGenerator(f, jobNodes(tt, 1), DefaultGeneratorConfig())
}

func TestGeneratorProducesTraffic(t *testing.T) {
	for _, p := range []Pattern{UniformRandom, Hotspot, AlltoallBully, Burst} {
		f, tt, eng := testFabric(t, 2)
		cfg := DefaultGeneratorConfig()
		cfg.Pattern = p
		cfg.IntervalCycles = 5000
		g := NewGenerator(f, jobNodes(tt, 6), cfg)
		g.Start(2_000_000)
		if err := eng.RunUntil(2_100_000); err != nil {
			t.Fatal(err)
		}
		if g.MessagesSent() == 0 {
			t.Fatalf("pattern %v generated no traffic", p)
		}
		if f.PacketsInjected() == 0 {
			t.Fatalf("pattern %v injected no packets into the fabric", p)
		}
	}
}

func TestGeneratorStops(t *testing.T) {
	f, tt, eng := testFabric(t, 3)
	cfg := DefaultGeneratorConfig()
	cfg.IntervalCycles = 1000
	g := NewGenerator(f, jobNodes(tt, 4), cfg)
	g.Start(50_000)
	if err := eng.RunUntil(40_000); err != nil {
		t.Fatal(err)
	}
	g.Stop()
	sent := g.MessagesSent()
	if err := eng.RunUntil(500_000); err != nil {
		t.Fatal(err)
	}
	if g.MessagesSent() != sent {
		t.Fatalf("generator kept sending after Stop: %d -> %d", sent, g.MessagesSent())
	}
}

func TestGeneratorRespectsDeadline(t *testing.T) {
	f, tt, eng := testFabric(t, 4)
	cfg := DefaultGeneratorConfig()
	cfg.IntervalCycles = 1000
	g := NewGenerator(f, jobNodes(tt, 4), cfg)
	g.Start(30_000)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// All sends happened before the deadline (plus one interval of slack).
	if eng.Now() > 10_000_000 {
		t.Fatalf("generator ran far past its deadline: now=%d", eng.Now())
	}
	if g.MessagesSent() == 0 {
		t.Fatal("no messages before deadline")
	}
}

func TestFromAllocation(t *testing.T) {
	f, tt, _ := testFabric(t, 5)
	a := alloc.MustAllocate(tt, alloc.Contiguous, 4, nil, nil)
	if g := FromAllocation(f, a, DefaultGeneratorConfig()); g.NumNodes() != 4 {
		t.Fatalf("generator over a 4-node allocation runs on %d nodes", g.NumNodes())
	}
}

func TestHotspotTargetsVictim(t *testing.T) {
	f, tt, eng := testFabric(t, 6)
	cfg := DefaultGeneratorConfig()
	cfg.Pattern = Hotspot
	cfg.IntervalCycles = 2000
	nodes := jobNodes(tt, 6)
	g := NewGenerator(f, nodes, cfg)
	g.Start(500_000)
	if err := eng.RunUntil(600_000); err != nil {
		t.Fatal(err)
	}
	// The victim's router must have received most of the traffic.
	victim := map[topo.RouterID]bool{tt.RouterOfNode(nodes[0]): true}
	flits, _ := f.IncomingFlits(victim)
	if flits == 0 {
		t.Fatal("victim router saw no flits under hotspot pattern")
	}
}

func TestHostNoiseSamples(t *testing.T) {
	sampler := HostNoise()
	sawSpike := false
	var sum int64
	const n = 10_000
	for i := 0; i < n; i++ {
		d := sampler(0)
		if d < 0 {
			t.Fatal("negative host-noise sample")
		}
		if d >= hostNoiseSpikeCycles {
			sawSpike = true
		}
		sum += d
	}
	if !sawSpike {
		t.Fatal("heavy tail never produced a spike in 10k samples")
	}
	mean := float64(sum) / n
	cfgMean := hostNoiseMeanCycles + hostNoiseSpikeProbability*hostNoiseSpikeCycles
	if mean < cfgMean*0.5 || mean > cfgMean*2 {
		t.Fatalf("empirical mean %.0f too far from configured %.0f", mean, cfgMean)
	}
	// A fresh sampler replays the same stream, so every trial that builds
	// its own draws the same delays.
	a, b := HostNoise(), HostNoise()
	for i := 0; i < 100; i++ {
		if x, y := a(i), b(0); x != y {
			t.Fatalf("sample %d: %d from one sampler, %d from another", i, x, y)
		}
	}
}

// Property: host-noise samples are never negative, wherever in the stream
// they are drawn.
func TestPropertyHostNoiseNonNegative(t *testing.T) {
	f := func(skip uint16) bool {
		sampler := HostNoise()
		for i := 0; i < int(skip); i++ {
			sampler(0)
		}
		for i := 0; i < 50; i++ {
			if sampler(i) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
