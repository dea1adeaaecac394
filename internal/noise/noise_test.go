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

func TestGeneratorConfigValidate(t *testing.T) {
	if err := DefaultGeneratorConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultGeneratorConfig()
	bad.MessageBytes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero message size must fail")
	}
	bad = DefaultGeneratorConfig()
	bad.IntervalCycles = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero interval must fail")
	}
	bad = DefaultGeneratorConfig()
	bad.Pattern = Burst
	bad.BurstIdleCycles = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("burst with a negative idle gap must fail")
	}
}

func TestGeneratorRejectsTinyJobs(t *testing.T) {
	f, tt, _ := testFabric(t, 1)
	if _, err := NewGenerator(f, jobNodes(tt, 1), DefaultGeneratorConfig()); err == nil {
		t.Fatal("single-node generator must be rejected")
	}
	if _, err := NewGenerator(f, jobNodes(tt, 4), GeneratorConfig{}); err == nil {
		t.Fatal("invalid config must be rejected")
	}
}

func TestGeneratorProducesTraffic(t *testing.T) {
	for _, p := range []Pattern{UniformRandom, Hotspot, AlltoallBully, Burst} {
		f, tt, eng := testFabric(t, 2)
		cfg := DefaultGeneratorConfig()
		cfg.Pattern = p
		cfg.IntervalCycles = 5000
		g := MustNewGenerator(f, jobNodes(tt, 6), cfg)
		g.Start(2_000_000)
		if err := eng.RunUntil(2_100_000); err != nil {
			t.Fatal(err)
		}
		if g.MessagesSent() == 0 {
			t.Fatalf("pattern %v generated no traffic", p)
		}
		if g.BytesSent() != g.MessagesSent()*uint64(cfg.MessageBytes) {
			t.Fatalf("pattern %v byte accounting mismatch", p)
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
	g := MustNewGenerator(f, jobNodes(tt, 4), cfg)
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
	g := MustNewGenerator(f, jobNodes(tt, 4), cfg)
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
	g, err := FromAllocation(f, a, DefaultGeneratorConfig())
	if err != nil || g == nil {
		t.Fatal(err)
	}
}

func TestHotspotTargetsVictim(t *testing.T) {
	f, tt, eng := testFabric(t, 6)
	cfg := DefaultGeneratorConfig()
	cfg.Pattern = Hotspot
	cfg.IntervalCycles = 2000
	nodes := jobNodes(tt, 6)
	g := MustNewGenerator(f, nodes, cfg)
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

func TestMustNewGeneratorPanics(t *testing.T) {
	f, tt, _ := testFabric(t, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewGenerator did not panic")
		}
	}()
	MustNewGenerator(f, jobNodes(tt, 1), DefaultGeneratorConfig())
}

func TestHostNoiseConfigValidate(t *testing.T) {
	if err := DefaultHostNoiseConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultHostNoiseConfig()
	bad.MeanCycles = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative mean must fail")
	}
	bad = DefaultHostNoiseConfig()
	bad.SpikeProbability = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("probability > 1 must fail")
	}
	if _, err := NewHostNoise(bad); err == nil {
		t.Fatal("NewHostNoise must reject bad config")
	}
}

func TestMustNewHostNoisePanics(t *testing.T) {
	bad := DefaultHostNoiseConfig()
	bad.SpikeCycles = -1
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewHostNoise did not panic")
		}
	}()
	MustNewHostNoise(bad)
}

func TestHostNoiseSamples(t *testing.T) {
	h := MustNewHostNoise(DefaultHostNoiseConfig())
	sampler := h.Sampler()
	sawSpike := false
	var sum int64
	const n = 10_000
	for i := 0; i < n; i++ {
		d := sampler(0)
		if d < 0 {
			t.Fatal("negative host-noise sample")
		}
		if d >= DefaultHostNoiseConfig().SpikeCycles {
			sawSpike = true
		}
		sum += d
	}
	if !sawSpike {
		t.Fatal("heavy tail never produced a spike in 10k samples")
	}
	mean := float64(sum) / n
	cfgMean := float64(DefaultHostNoiseConfig().MeanCycles) +
		DefaultHostNoiseConfig().SpikeProbability*float64(DefaultHostNoiseConfig().SpikeCycles)
	if mean < cfgMean*0.5 || mean > cfgMean*2 {
		t.Fatalf("empirical mean %.0f too far from configured %.0f", mean, cfgMean)
	}
}

// Property: host-noise samples are always non-negative for any configuration.
func TestPropertyHostNoiseNonNegative(t *testing.T) {
	f := func(mean uint16, spike uint16, probPct uint8, seed int64) bool {
		cfg := HostNoiseConfig{
			MeanCycles:       int64(mean),
			SpikeCycles:      int64(spike),
			SpikeProbability: float64(probPct%101) / 100,
			Seed:             seed,
		}
		h, err := NewHostNoise(cfg)
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			if h.Sample(i) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
