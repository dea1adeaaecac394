package core

import (
	"testing"
	"testing/quick"

	"dragonfly/internal/counters"
	"dragonfly/internal/routing"
)

// obsCounters builds a counter delta producing the given latency and stall ratio.
func obsCounters(latency float64, stallRatio float64) counters.NIC {
	const packets = 100
	const flitsPerPacket = 5
	return counters.NIC{
		RequestPackets:            packets,
		RequestFlits:              packets * flitsPerPacket,
		RequestPacketsCumLatency:  uint64(latency * packets),
		RequestFlitsStalledCycles: uint64(stallRatio * packets * flitsPerPacket),
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.ThresholdBytes = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative threshold must be rejected")
	}
	bad = DefaultConfig()
	bad.LambdaAdaptiveToBias = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero scaling factor must be rejected")
	}
	bad = DefaultConfig()
	bad.StalenessDecisions = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero staleness must be rejected")
	}
	bad = DefaultConfig()
	bad.CounterReadOverheadCycles = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative overhead must be rejected")
	}
	if _, err := New(bad); err == nil {
		t.Fatal("New must reject invalid config")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Config{})
}

func TestStartsInAdaptive(t *testing.T) {
	s := MustNew(DefaultConfig())
	if s.Current() != routing.Adaptive {
		t.Fatalf("initial mode = %v, want Adaptive", s.Current())
	}
}

func TestSmallMessagesUseHighBiasWithoutEvaluation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ThresholdBytes = 4 << 10
	s := MustNew(cfg)
	d := s.Select(128, PointToPoint)
	if d.Mode != routing.AdaptiveHighBias {
		t.Fatalf("small message mode = %v, want AdaptiveHighBias", d.Mode)
	}
	if d.Evaluated || d.OverheadCycles != 0 {
		t.Fatalf("small message must not evaluate the algorithm: %+v", d)
	}
	if s.Stats().Evaluations != 0 {
		t.Fatal("no evaluation expected below the threshold")
	}
}

func TestCumulativeThresholdTriggersEvaluation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ThresholdBytes = 4 << 10
	s := MustNew(cfg)
	// 40 messages of 128 bytes cross the 4 KiB threshold exactly once.
	evaluated := 0
	for i := 0; i < 40; i++ {
		if d := s.Select(128, PointToPoint); d.Evaluated {
			evaluated++
			if d.OverheadCycles != cfg.CounterReadOverheadCycles {
				t.Fatalf("evaluated decision has overhead %d, want %d", d.OverheadCycles, cfg.CounterReadOverheadCycles)
			}
		}
	}
	if evaluated == 0 {
		t.Fatal("cumulative threshold never triggered the algorithm")
	}
	if evaluated > 2 {
		t.Fatalf("algorithm evaluated %d times for 5 KiB of traffic, expected at most 2", evaluated)
	}
}

func TestPrefersHighBiasWhenModelSaysSo(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ThresholdBytes = 0 // evaluate every message
	s := MustNew(cfg)
	// Observed Adaptive state: high latency, low stalls.
	s.Observe(routing.Adaptive, obsCounters(10000, 0.1))
	// Observed High Bias state: much lower latency, slightly more stalls.
	s.Observe(routing.AdaptiveHighBias, obsCounters(6000, 0.3))
	d := s.Select(256, PointToPoint)
	if d.Mode != routing.AdaptiveHighBias {
		t.Fatalf("mode = %v, want AdaptiveHighBias for a small latency-bound message", d.Mode)
	}
}

func TestPrefersAdaptiveForLargeCongestedMessages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ThresholdBytes = 0
	s := MustNew(cfg)
	// High Bias shows many stalls; Adaptive spreads the load (fewer stalls)
	// at slightly higher latency. Large messages are stall-bound.
	s.Observe(routing.Adaptive, obsCounters(10000, 0.05))
	s.Observe(routing.AdaptiveHighBias, obsCounters(8000, 2.0))
	d := s.Select(4<<20, PointToPoint)
	if d.Mode != routing.Adaptive {
		t.Fatalf("mode = %v, want Adaptive for a large stall-bound message", d.Mode)
	}
}

func TestDualBranchSwitchesBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ThresholdBytes = 0
	s := MustNew(cfg)
	// Drive the selector into High Bias first.
	s.Observe(routing.Adaptive, obsCounters(10000, 0.1))
	s.Observe(routing.AdaptiveHighBias, obsCounters(6000, 0.3))
	if d := s.Select(256, PointToPoint); d.Mode != routing.AdaptiveHighBias {
		t.Fatalf("setup failed, mode = %v", d.Mode)
	}
	// Now the network changes: High Bias stalls explode.
	s.Observe(routing.AdaptiveHighBias, obsCounters(9000, 5.0))
	s.Observe(routing.Adaptive, obsCounters(10000, 0.05))
	d := s.Select(4<<20, PointToPoint)
	if d.Mode != routing.Adaptive {
		t.Fatalf("mode = %v, want Adaptive after stall increase", d.Mode)
	}
	if s.Stats().Switches < 2 {
		t.Fatalf("expected at least two switches, got %d", s.Stats().Switches)
	}
}

func TestAlltoallUsesIMBAsDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ThresholdBytes = 0
	s := MustNew(cfg)
	// Make the default side preferable for a large message.
	s.Observe(routing.Adaptive, obsCounters(10000, 0.05))
	s.Observe(routing.AdaptiveHighBias, obsCounters(8000, 2.0))
	d := s.Select(4<<20, Alltoall)
	if d.Mode != routing.IncreasinglyMinimalBias {
		t.Fatalf("alltoall default mode = %v, want IncreasinglyMinimalBias", d.Mode)
	}
}

func TestStaleObservationRederived(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ThresholdBytes = 0
	cfg.StalenessDecisions = 2
	s := MustNew(cfg)
	s.Observe(routing.Adaptive, obsCounters(10000, 0.5))
	// No High-Bias observation exists; after a Select the selector must have
	// derived one through the scaling factors.
	s.Select(1<<20, PointToPoint)
	_, adValid, bias, biasValid := s.ObservedParams()
	if !adValid || !biasValid {
		t.Fatal("expected both observations to be valid after re-derivation")
	}
	wantLat := 10000 * cfg.LambdaAdaptiveToBias
	wantStall := 0.5 * cfg.SigmaAdaptiveToBias
	if bias.LatencyCycles != wantLat || bias.StallRatio != wantStall {
		t.Fatalf("derived bias params = %+v, want L=%v s=%v", bias, wantLat, wantStall)
	}
}

func TestObserveIgnoresEmptyDelta(t *testing.T) {
	s := MustNew(DefaultConfig())
	s.Observe(routing.Adaptive, counters.NIC{})
	_, adValid, _, biasValid := s.ObservedParams()
	if adValid || biasValid {
		t.Fatal("empty delta must not create observations")
	}
	if s.Stats().CounterReads != 0 {
		t.Fatal("empty delta must not count as a counter read")
	}
}

func TestStatsAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ThresholdBytes = 1 << 30 // never evaluate: everything goes High Bias
	s := MustNew(cfg)
	for i := 0; i < 10; i++ {
		s.Select(1000, PointToPoint)
	}
	st := s.Stats()
	if st.Messages != 10 || st.Bytes != 10000 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BiasMessages != 10 || st.DefaultMessages != 0 {
		t.Fatalf("all messages must be High Bias below threshold: %+v", st)
	}
	if st.DefaultTrafficFraction() != 0 {
		t.Fatalf("DefaultTrafficFraction = %v, want 0", st.DefaultTrafficFraction())
	}

	// Now a selector that always stays on the default mode.
	cfg = DefaultConfig()
	cfg.ThresholdBytes = 0
	s = MustNew(cfg)
	s.Observe(routing.Adaptive, obsCounters(1000, 0.01))
	s.Observe(routing.AdaptiveHighBias, obsCounters(5000, 3.0))
	for i := 0; i < 10; i++ {
		s.Select(1<<20, PointToPoint)
	}
	st = s.Stats()
	if st.DefaultTrafficFraction() != 1 {
		t.Fatalf("DefaultTrafficFraction = %v, want 1", st.DefaultTrafficFraction())
	}
	if (Stats{}).DefaultTrafficFraction() != 0 {
		t.Fatal("empty stats fraction must be 0")
	}
}

func TestTrafficKindString(t *testing.T) {
	if PointToPoint.String() != "point-to-point" || Alltoall.String() != "alltoall" {
		t.Fatal("unexpected TrafficKind strings")
	}
}

// Property: the selector only ever returns the default adaptive mode (Adaptive
// or IMB) or Adaptive with High Bias, never a deterministic mode, and its
// byte accounting always sums to the total.
func TestPropertySelectorModesAndAccounting(t *testing.T) {
	f := func(sizes []uint16, latA, latB uint16, sA, sB uint8, alltoall bool) bool {
		cfg := DefaultConfig()
		cfg.ThresholdBytes = 2048
		s := MustNew(cfg)
		s.Observe(routing.Adaptive, obsCounters(float64(latA)+1, float64(sA)/50))
		s.Observe(routing.AdaptiveHighBias, obsCounters(float64(latB)+1, float64(sB)/50))
		kind := PointToPoint
		if alltoall {
			kind = Alltoall
		}
		for _, sz := range sizes {
			d := s.Select(int64(sz), kind)
			switch d.Mode {
			case routing.Adaptive, routing.IncreasinglyMinimalBias, routing.AdaptiveHighBias:
			default:
				return false
			}
			if !alltoall && d.Mode == routing.IncreasinglyMinimalBias {
				return false
			}
		}
		st := s.Stats()
		return st.DefaultBytes+st.BiasBytes == st.Bytes && st.Messages == uint64(len(sizes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: given fresh observations where one mode dominates (both lower
// latency and fewer stalls), the selector always picks the dominating mode
// once the threshold is crossed.
func TestPropertyPicksDominatingMode(t *testing.T) {
	f := func(size uint32, biasBetter bool) bool {
		cfg := DefaultConfig()
		cfg.ThresholdBytes = 0
		s := MustNew(cfg)
		if biasBetter {
			s.Observe(routing.Adaptive, obsCounters(10000, 1.0))
			s.Observe(routing.AdaptiveHighBias, obsCounters(5000, 0.2))
		} else {
			s.Observe(routing.Adaptive, obsCounters(5000, 0.2))
			s.Observe(routing.AdaptiveHighBias, obsCounters(10000, 1.0))
		}
		d := s.Select(int64(size%(8<<20))+1, PointToPoint)
		if biasBetter {
			return d.Mode == routing.AdaptiveHighBias
		}
		return d.Mode == routing.Adaptive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
