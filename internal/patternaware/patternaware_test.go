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

func TestStartsLightAndPrefersHighBias(t *testing.T) {
	c := New()
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
	// 256 sends of 256 B fill the 64 KiB window once per 256 messages, and
	// their mean size is far below the 8 KiB heavy threshold.
	c := New()
	for i := 0; i < 2*256; i++ {
		mode, _, _ := c.SelectMode(256, core.PointToPoint)
		if mode != routing.AdaptiveHighBias {
			t.Fatalf("message %d routed with %v, want AdaptiveHighBias", i, mode)
		}
	}
	if c.Current() != Light {
		t.Fatalf("class = %v after small-message stream, want Light", c.Current())
	}
	if c.Stats().Classifications == 0 {
		t.Fatal("window never filled despite 512*256 bytes")
	}
}

func TestHeavyCongestedSwitchesToAdaptive(t *testing.T) {
	// 16 KiB messages count as heavy and fill the 64 KiB window every four
	// messages; a stall ratio of 2.0 is far above the 0.5 threshold.
	c := New()
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
	c := New()
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
	// 8 KiB messages reach the heavy threshold and fill a window every eight.
	c := New()
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
	// 1 KiB messages fill the 64 KiB window every 64 messages.
	c := New()
	var charged, windows int
	for i := 0; i < 200; i++ {
		_, overhead, _ := c.SelectMode(1<<10, core.PointToPoint)
		if overhead != 0 {
			if overhead != counterReadOverheadCycles {
				t.Fatalf("unexpected overhead %d", overhead)
			}
			charged++
		}
	}
	windows = int(c.Stats().Classifications)
	if charged != windows {
		t.Fatalf("overhead charged %d times for %d classifications", charged, windows)
	}
	if windows != 3 {
		t.Fatalf("%d classifications after 200 KiB, want 3", windows)
	}
}

func TestStatsAccounting(t *testing.T) {
	c := New()
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
		c := New()
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
