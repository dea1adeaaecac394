package perfmodel

import (
	"math"
	"testing"
	"testing/quick"

	"dragonfly/internal/counters"
)

func TestGeometryForSize(t *testing.T) {
	cases := []struct {
		size    int64
		packets int64
		flits   int64
	}{
		{0, 1, 5},
		{1, 1, 5},
		{64, 1, 5},
		{65, 2, 10},
		{1024, 16, 80},
		{1 << 20, 16384, 81920},
	}
	for _, c := range cases {
		g := GeometryForSize(c.size)
		if g.Packets != c.packets || g.Flits != c.flits {
			t.Fatalf("GeometryForSize(%d) = %+v, want packets=%d flits=%d", c.size, g, c.packets, c.flits)
		}
	}
	if g := GeometryForSize(-5); g.Packets != 1 {
		t.Fatalf("negative size must clamp to one packet, got %+v", g)
	}
}

func TestParamsFromCounters(t *testing.T) {
	delta := counters.NIC{
		RequestFlits:              100,
		RequestFlitsStalledCycles: 200,
		RequestPackets:            20,
		RequestPacketsCumLatency:  30000,
	}
	p := ParamsFromCounters(delta)
	if p.StallRatio != 2 {
		t.Fatalf("StallRatio = %v, want 2", p.StallRatio)
	}
	if p.LatencyCycles != 1500 {
		t.Fatalf("LatencyCycles = %v, want 1500", p.LatencyCycles)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Params{LatencyCycles: -1}).Validate(); err == nil {
		t.Fatal("expected error for negative latency")
	}
	if err := (Params{StallRatio: -1}).Validate(); err == nil {
		t.Fatal("expected error for negative stall ratio")
	}
}

func TestEstimateSmallMessage(t *testing.T) {
	// A single-packet message: Eq. 2 gives (1+512)/1024*L + f*(s+1).
	g := GeometryForSize(64)
	p := Params{LatencyCycles: 2048, StallRatio: 1}
	got := EstimateCycles(g, p)
	want := (1.0+512.0)/1024.0*2048 + 5*2
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("EstimateCycles = %v, want %v", got, want)
	}
	simple := EstimateSimpleCycles(g, p)
	wantSimple := 2048.0/2 + 5*2
	if math.Abs(simple-wantSimple) > 1e-9 {
		t.Fatalf("EstimateSimpleCycles = %v, want %v", simple, wantSimple)
	}
}

func TestEstimateMatchesEquationForms(t *testing.T) {
	// For p = 512 packets, Eq. 2 equals L + f(s+1).
	g := Geometry{Packets: 512, Flits: 512 * 5}
	p := Params{LatencyCycles: 1000, StallRatio: 0.5}
	got := EstimateCycles(g, p)
	want := 1000 + float64(512*5)*1.5
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("EstimateCycles = %v, want %v", got, want)
	}
}

func TestEstimateForSizeMonotoneInSize(t *testing.T) {
	p := Params{LatencyCycles: 3000, StallRatio: 0.2}
	prev := -1.0
	for _, size := range []int64{64, 1024, 65536, 1 << 20, 16 << 20} {
		est := EstimateForSize(size, p)
		if est <= prev {
			t.Fatalf("estimate not monotone in size at %d: %v <= %v", size, est, prev)
		}
		prev = est
	}
}

func TestPreferB(t *testing.T) {
	// Mode b (high bias) has lower latency but more stalls. With these
	// parameters the crossover (Eq. 4) sits between a 256-byte and a 4 MiB
	// message, so b wins small transfers and a wins large ones.
	a := Params{LatencyCycles: 10000, StallRatio: 0.1}
	b := Params{LatencyCycles: 8000, StallRatio: 1.1}
	small := GeometryForSize(256)
	large := GeometryForSize(4 << 20)
	if !PreferB(small, a, b) {
		t.Fatal("small message should prefer the low-latency mode")
	}
	if PreferB(large, a, b) {
		t.Fatal("large message should prefer the low-stall mode")
	}
}

func TestCrossoverFlits(t *testing.T) {
	a := Params{LatencyCycles: 10000, StallRatio: 0.1}
	b := Params{LatencyCycles: 8000, StallRatio: 1.1}
	f, preferBForSmall, exists := CrossoverFlits(a, b, 1)
	if !exists || !preferBForSmall {
		t.Fatalf("expected a finite crossover with b preferred for small messages, got f=%v preferBForSmall=%v exists=%v", f, preferBForSmall, exists)
	}
	// Messages below the crossover must prefer b, above must prefer a.
	below := Geometry{Flits: int64(f * 0.5), Packets: 1}
	above := Geometry{Flits: int64(f*2) + 1, Packets: 1}
	if !PreferB(below, a, b) {
		t.Fatal("below crossover must prefer b")
	}
	if PreferB(above, a, b) {
		t.Fatal("above crossover must prefer a")
	}

	// b dominates: lower latency and lower stalls -> always preferred.
	_, preferBForSmall, exists = CrossoverFlits(a, Params{LatencyCycles: 5000, StallRatio: 0.05}, 1)
	if exists || !preferBForSmall {
		t.Fatal("dominating b must be always preferred")
	}
	// b dominated: higher latency and more stalls -> never preferred.
	_, preferBForSmall, exists = CrossoverFlits(a, Params{LatencyCycles: 20000, StallRatio: 0.5}, 1)
	if exists || preferBForSmall {
		t.Fatal("dominated b must never be preferred")
	}
	// b worse on latency, equal stalls -> never preferred.
	_, preferBForSmall, exists = CrossoverFlits(a, Params{LatencyCycles: 20000, StallRatio: 0.1}, 1)
	if exists || preferBForSmall {
		t.Fatal("b with equal stalls but worse latency must never be preferred")
	}
	// b better on latency, equal stalls -> always preferred.
	_, preferBForSmall, exists = CrossoverFlits(a, Params{LatencyCycles: 5000, StallRatio: 0.1}, 1)
	if exists || !preferBForSmall {
		t.Fatal("b with equal stalls but better latency must always be preferred")
	}
	// b with fewer stalls but higher latency -> preferred above the crossover.
	f, preferBForSmall, exists = CrossoverFlits(Params{LatencyCycles: 8000, StallRatio: 1.1}, Params{LatencyCycles: 10000, StallRatio: 0.1}, 1)
	if !exists || preferBForSmall {
		t.Fatal("low-stall high-latency b must be preferred above the crossover")
	}
	if f <= 0 {
		t.Fatalf("crossover must be positive, got %v", f)
	}
}

// Property: the estimate is non-negative and increases with the stall ratio
// and with the latency.
func TestPropertyEstimateMonotone(t *testing.T) {
	f := func(sizeKB uint16, lat uint32, stallMilli uint16) bool {
		size := int64(sizeKB) + 1
		p := Params{LatencyCycles: float64(lat), StallRatio: float64(stallMilli) / 1000}
		g := GeometryForSize(size)
		base := EstimateCycles(g, p)
		if base < 0 {
			return false
		}
		moreLat := EstimateCycles(g, Params{LatencyCycles: p.LatencyCycles + 100, StallRatio: p.StallRatio})
		moreStall := EstimateCycles(g, Params{LatencyCycles: p.LatencyCycles, StallRatio: p.StallRatio + 0.5})
		return moreLat > base && moreStall > base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: PreferB is consistent with the crossover equation whenever a
// finite crossover exists, and with the always/never verdict otherwise.
func TestPropertyPreferBConsistentWithCrossover(t *testing.T) {
	f := func(la, lb uint16, sa, sb uint8, sizeKB uint16) bool {
		a := Params{LatencyCycles: float64(la) + 1, StallRatio: float64(sa) / 100}
		b := Params{LatencyCycles: float64(lb) + 1, StallRatio: float64(sb) / 100}
		g := GeometryForSize(int64(sizeKB)*64 + 1)
		cross, preferBForSmall, exists := CrossoverFlits(a, b, g.Packets)
		pref := PreferB(g, a, b)
		tie := math.Abs(EstimateCycles(g, a)-EstimateCycles(g, b)) < 1e-6
		if tie {
			return true
		}
		if !exists {
			return pref == preferBForSmall
		}
		if float64(g.Flits) < cross {
			return pref == preferBForSmall
		}
		return pref == !preferBForSmall
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
