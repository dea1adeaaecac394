package patternaware

import (
	"testing"
	"testing/quick"

	"dragonfly/internal/core"
	"dragonfly/internal/counters"
	"dragonfly/internal/mpi"
	"dragonfly/internal/network"
	"dragonfly/internal/routing"
)

// The classifier must be usable wherever the message layer expects a routing
// provider (the same interposition point as the paper's selector).
var _ mpi.RoutingProvider = (*Classifier)(nil)

func deliveryWithStall(flits, stalled uint64) network.Delivery {
	return network.Delivery{Counters: counters.NIC{
		RequestFlits:              flits,
		RequestFlitsStalledCycles: stalled,
		RequestPackets:            flits,
		RequestPacketsCumLatency:  flits * 100,
	}}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{},
		{WindowBytes: 1, HeavyMeanMessageBytes: 0, EWMAAlpha: 0.5},
		{WindowBytes: 1, HeavyMeanMessageBytes: 1, EWMAAlpha: 0},
		{WindowBytes: 1, HeavyMeanMessageBytes: 1, EWMAAlpha: 1.5},
		{WindowBytes: 1, HeavyMeanMessageBytes: 1, EWMAAlpha: 0.5, StallThreshold: -1},
		{WindowBytes: 1, HeavyMeanMessageBytes: 1, EWMAAlpha: 0.5, CounterReadOverheadCycles: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestStartsLightAndPrefersHighBias(t *testing.T) {
	c := MustNew(DefaultConfig())
	mode, overhead, _ := c.SelectMode(64, core.PointToPoint)
	if mode != routing.AdaptiveHighBias {
		t.Fatalf("initial mode = %v, want AdaptiveHighBias", mode)
	}
	if overhead != 0 {
		t.Fatalf("overhead charged before any classification: %d", overhead)
	}
	if c.Current() != Light {
		t.Fatalf("initial class = %v, want Light", c.Current())
	}
}

func TestSmallMessagesStayLight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowBytes = 4 << 10
	cfg.HeavyMeanMessageBytes = 1 << 10
	c := MustNew(cfg)
	for i := 0; i < 200; i++ {
		mode, _, _ := c.SelectMode(256, core.PointToPoint)
		if mode != routing.AdaptiveHighBias {
			t.Fatalf("message %d routed with %v, want AdaptiveHighBias", i, mode)
		}
	}
	if c.Current() != Light {
		t.Fatalf("class = %v after small-message stream, want Light", c.Current())
	}
	if c.Stats().Classifications == 0 {
		t.Fatal("window never filled despite 200*256 bytes")
	}
}

func TestHeavyCongestedSwitchesToAdaptive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowBytes = 32 << 10
	cfg.HeavyMeanMessageBytes = 4 << 10
	cfg.StallThreshold = 0.5
	c := MustNew(cfg)
	// Feed congested observations, then enough large messages to fill windows.
	var sawAdaptive bool
	for i := 0; i < 32; i++ {
		mode, _, observe := c.SelectMode(16<<10, core.PointToPoint)
		observe(deliveryWithStall(100, 200)) // stall ratio 2.0 >> threshold
		if mode == routing.Adaptive {
			sawAdaptive = true
		}
	}
	if !sawAdaptive {
		t.Fatal("heavy congested traffic never switched to Adaptive")
	}
	if c.Current() != HeavyCongested {
		t.Fatalf("class = %v, want HeavyCongested", c.Current())
	}
}

func TestHeavySmoothKeepsHighBias(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowBytes = 32 << 10
	cfg.HeavyMeanMessageBytes = 4 << 10
	c := MustNew(cfg)
	for i := 0; i < 32; i++ {
		mode, _, observe := c.SelectMode(16<<10, core.PointToPoint)
		observe(deliveryWithStall(100, 0)) // no stalls
		if mode != routing.AdaptiveHighBias {
			t.Fatalf("message %d routed with %v, want AdaptiveHighBias (heavy but smooth)", i, mode)
		}
	}
	if c.Current() != HeavySmooth {
		t.Fatalf("class = %v, want HeavySmooth", c.Current())
	}
}

func TestAlltoallUsesIMBWhenCongested(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowBytes = 16 << 10
	cfg.HeavyMeanMessageBytes = 1 << 10
	c := MustNew(cfg)
	var sawIMB bool
	for i := 0; i < 32; i++ {
		mode, _, observe := c.SelectMode(8<<10, core.Alltoall)
		observe(deliveryWithStall(100, 500))
		if mode == routing.IncreasinglyMinimalBias {
			sawIMB = true
		}
		if mode == routing.Adaptive {
			t.Fatal("congested alltoall traffic routed with plain Adaptive")
		}
	}
	if !sawIMB {
		t.Fatal("congested alltoall traffic never used Increasingly Minimal Bias")
	}
}

func TestOverheadChargedOncePerWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowBytes = 10 << 10
	cfg.CounterReadOverheadCycles = 123
	c := MustNew(cfg)
	var charged, windows int
	for i := 0; i < 100; i++ {
		_, overhead, _ := c.SelectMode(1<<10, core.PointToPoint)
		if overhead != 0 {
			if overhead != 123 {
				t.Fatalf("unexpected overhead %d", overhead)
			}
			charged++
		}
	}
	windows = int(c.Stats().Classifications)
	if charged != windows {
		t.Fatalf("overhead charged %d times for %d classifications", charged, windows)
	}
	if windows == 0 {
		t.Fatal("no classification happened")
	}
}

func TestStatsAccounting(t *testing.T) {
	c := MustNew(DefaultConfig())
	for i := 0; i < 10; i++ {
		c.SelectMode(1024, core.PointToPoint)
	}
	st := c.Stats()
	if st.Messages != 10 || st.Bytes != 10*1024 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.DefaultBytes+st.BiasBytes != st.Bytes {
		t.Fatalf("per-mode byte split (%d + %d) does not cover total %d",
			st.DefaultBytes, st.BiasBytes, st.Bytes)
	}
}

// TestByteAccountingProperty checks that for any message stream the per-mode
// byte split always sums to the total.
func TestByteAccountingProperty(t *testing.T) {
	prop := func(sizes []uint16, stalls []uint16) bool {
		cfg := DefaultConfig()
		cfg.WindowBytes = 8 << 10
		c := MustNew(cfg)
		for i, sz := range sizes {
			_, _, observe := c.SelectMode(int64(sz), core.PointToPoint)
			if observe != nil && i < len(stalls) {
				observe(deliveryWithStall(64, uint64(stalls[i])))
			}
		}
		st := c.Stats()
		return st.DefaultBytes+st.BiasBytes == st.Bytes
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClassString(t *testing.T) {
	for class, want := range map[Class]string{Light: "light", HeavyCongested: "heavy-congested", HeavySmooth: "heavy-smooth"} {
		if class.String() != want {
			t.Errorf("%d.String() = %q, want %q", class, class.String(), want)
		}
	}
}
