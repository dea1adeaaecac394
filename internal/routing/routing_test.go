package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dragonfly/internal/topo"
)

func newTestPolicy(t *testing.T, groups int) (*Policy, *topo.Topology) {
	t.Helper()
	tt := topo.MustNew(topo.SmallConfig(groups))
	p, err := NewPolicy(tt, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return p, tt
}

func TestModeStrings(t *testing.T) {
	cases := map[Mode]string{
		Adaptive:                "ADAPTIVE_0",
		IncreasinglyMinimalBias: "ADAPTIVE_1",
		AdaptiveLowBias:         "ADAPTIVE_2",
		AdaptiveHighBias:        "ADAPTIVE_3",
		MinHash:                 "MIN_HASH",
		NonMinHash:              "NMIN_HASH",
		InOrder:                 "IN_ORDER",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Fatalf("%v.String() = %q, want %q", m, m.String(), want)
		}
		if m.Name() == "" {
			t.Fatalf("%v.Name() empty", m)
		}
		back, err := ParseMode(want)
		if err != nil || back != m {
			t.Fatalf("ParseMode(%q) = %v, %v", want, back, err)
		}
	}
	if _, err := ParseMode("NOT_A_MODE"); err == nil {
		t.Fatal("expected error for unknown mode")
	}
	if Mode(200).String() == "" || Mode(200).Name() == "" {
		t.Fatal("unknown mode must still format")
	}
}

// TestParseModeRoundTrip pins the full String/Name/ParseMode contract: every
// mode round-trips through its canonical MPICH_GNI-style string, the
// documented short aliases parse to the right mode, names are unique, and
// unknown strings fail.
func TestParseModeRoundTrip(t *testing.T) {
	all := []Mode{Adaptive, IncreasinglyMinimalBias, AdaptiveLowBias,
		AdaptiveHighBias, MinHash, NonMinHash, InOrder}

	seenString := make(map[string]Mode)
	seenName := make(map[string]Mode)
	for _, m := range all {
		s := m.String()
		if prev, dup := seenString[s]; dup {
			t.Fatalf("modes %v and %v share String %q", prev, m, s)
		}
		seenString[s] = m
		n := m.Name()
		if prev, dup := seenName[n]; dup {
			t.Fatalf("modes %v and %v share Name %q", prev, m, n)
		}
		seenName[n] = m

		back, err := ParseMode(s)
		if err != nil {
			t.Fatalf("ParseMode(%v.String() = %q): %v", m, s, err)
		}
		if back != m {
			t.Fatalf("ParseMode(%q) = %v, want %v", s, back, m)
		}
	}

	aliases := map[string]Mode{
		"adaptive":  Adaptive,
		"Adaptive":  Adaptive,
		"imb":       IncreasinglyMinimalBias,
		"low-bias":  AdaptiveLowBias,
		"high-bias": AdaptiveHighBias,
	}
	for s, want := range aliases {
		got, err := ParseMode(s)
		if err != nil {
			t.Fatalf("ParseMode(alias %q): %v", s, err)
		}
		if got != want {
			t.Fatalf("ParseMode(%q) = %v, want %v", s, got, want)
		}
	}

	for _, s := range []string{"", "ADAPTIVE_4", "adaptive_0", "min_hash",
		"Adaptive with High Bias", "appaware", "default"} {
		if got, err := ParseMode(s); err == nil {
			t.Fatalf("ParseMode(%q) = %v, want error", s, got)
		}
	}
	// The parser must not accept the formatted form of an out-of-range mode.
	if got, err := ParseMode(Mode(200).String()); err == nil {
		t.Fatalf("ParseMode(%q) = %v, want error", Mode(200).String(), got)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{MinimalCandidates: 0, NonMinimalCandidates: 2},
		{MinimalCandidates: 2, NonMinimalCandidates: 0},
		{MinimalCandidates: 2, NonMinimalCandidates: 2, LowBiasCycles: -1},
		{MinimalCandidates: 2, NonMinimalCandidates: 2, LowBiasCycles: 100, HighBiasCycles: 10},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error for %+v", i, p)
		}
	}
	if _, err := NewPolicy(topo.MustNew(topo.SmallConfig(2)), Params{}); err == nil {
		t.Fatal("NewPolicy must reject invalid params")
	}
}

func TestRouteSameRouter(t *testing.T) {
	p, tt := newTestPolicy(t, 2)
	r := tt.RouterAt(topo.Coord{Group: 0, Chassis: 0, Blade: 0})
	d := p.Route(Adaptive, r, r, 5, 0, ZeroView{}, 0, rand.New(rand.NewSource(1)))
	if len(d.Path) != 0 || !d.Minimal {
		t.Fatalf("self route = %+v, want empty minimal path", d)
	}
}

func TestMinHashAlwaysMinimal(t *testing.T) {
	p, tt := newTestPolicy(t, 3)
	rng := rand.New(rand.NewSource(2))
	src := tt.RouterAt(topo.Coord{Group: 0, Chassis: 0, Blade: 0})
	dst := tt.RouterAt(topo.Coord{Group: 2, Chassis: 1, Blade: 3})
	for hash := uint64(0); hash < 50; hash++ {
		d := p.Route(MinHash, src, dst, 5, hash, ZeroView{}, 0, rng)
		if !d.Minimal {
			t.Fatal("MinHash selected a non-minimal path")
		}
		if err := tt.ValidatePath(src, dst, d.Path); err != nil {
			t.Fatal(err)
		}
		if len(d.Path) > topo.MaxMinimalHops {
			t.Fatalf("MinHash path too long: %d hops", len(d.Path))
		}
	}
}

func TestMinHashDeterministicPerHash(t *testing.T) {
	p, tt := newTestPolicy(t, 3)
	src := tt.RouterAt(topo.Coord{Group: 0, Chassis: 0, Blade: 0})
	dst := tt.RouterAt(topo.Coord{Group: 1, Chassis: 1, Blade: 1})
	// Decision.Path aliases the policy's scratch storage, so the first path
	// must be copied before issuing the second Route call.
	a := p.Route(MinHash, src, dst, 5, 1234, ZeroView{}, 0, nil)
	a.Path = append(topo.Path(nil), a.Path...)
	b := p.Route(MinHash, src, dst, 5, 1234, ZeroView{}, 0, nil)
	if len(a.Path) != len(b.Path) {
		t.Fatal("MinHash not deterministic for equal hash")
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			t.Fatal("MinHash not deterministic for equal hash")
		}
	}
}

func TestInOrderSinglePath(t *testing.T) {
	p, tt := newTestPolicy(t, 2)
	src := tt.RouterAt(topo.Coord{Group: 0, Chassis: 0, Blade: 0})
	dst := tt.RouterAt(topo.Coord{Group: 1, Chassis: 1, Blade: 2})
	first := p.Route(InOrder, src, dst, 5, 0, ZeroView{}, 0, rand.New(rand.NewSource(3)))
	first.Path = append(topo.Path(nil), first.Path...) // survives later Route calls
	for i := 0; i < 20; i++ {
		d := p.Route(InOrder, src, dst, 5, uint64(i), ZeroView{}, 0, rand.New(rand.NewSource(int64(i))))
		if !d.Minimal {
			t.Fatal("InOrder selected a non-minimal path")
		}
		if len(d.Path) != len(first.Path) {
			t.Fatal("InOrder did not reuse a single deterministic path")
		}
		for j := range d.Path {
			if d.Path[j] != first.Path[j] {
				t.Fatal("InOrder did not reuse a single deterministic path")
			}
		}
	}
}

func TestNonMinHashNonMinimal(t *testing.T) {
	p, tt := newTestPolicy(t, 3)
	src := tt.RouterAt(topo.Coord{Group: 0, Chassis: 0, Blade: 0})
	dst := tt.RouterAt(topo.Coord{Group: 1, Chassis: 0, Blade: 1})
	d := p.Route(NonMinHash, src, dst, 5, 42, ZeroView{}, 0, nil)
	if d.Minimal {
		t.Fatal("NonMinHash reported a minimal decision")
	}
	if err := tt.ValidatePath(src, dst, d.Path); err != nil {
		t.Fatal(err)
	}
}

// congestedView marks a set of links as heavily congested.
type congestedView struct {
	congested map[topo.LinkID]int64
	prop      int64
}

func (v congestedView) HopCosts(flits int) (hop [topo.NumLinkTypes]int64) {
	for k := range hop {
		hop[k] = v.prop + int64(flits)
	}
	return hop
}

func (v congestedView) BacklogBelow(path topo.Path, _, cost, bound int64) (int64, bool) {
	for _, id := range path {
		cost += v.congested[id]
	}
	return cost, cost < bound
}

func (v congestedView) CostBelow(path topo.Path, flits int, now, bound int64) (int64, bool) {
	return v.BacklogBelow(path, now, int64(len(path))*(v.prop+int64(flits)), bound)
}

func TestAdaptiveAvoidsCongestedMinimal(t *testing.T) {
	p, tt := newTestPolicy(t, 3)
	rng := rand.New(rand.NewSource(4))
	src := tt.RouterAt(topo.Coord{Group: 0, Chassis: 0, Blade: 0})
	dst := tt.RouterAt(topo.Coord{Group: 1, Chassis: 0, Blade: 0})

	// Congest every link leaving the source group towards the destination
	// group so that all minimal candidates look expensive.
	view := congestedView{congested: map[topo.LinkID]int64{}, prop: 10}
	for _, id := range tt.GlobalLinks(0, 1) {
		view.congested[id] = 1_000_000
	}
	nonMinimalPicked := 0
	for i := 0; i < 100; i++ {
		d := p.Route(Adaptive, src, dst, 5, 0, view, 0, rng)
		if !d.Minimal {
			nonMinimalPicked++
		}
	}
	if nonMinimalPicked < 80 {
		t.Fatalf("Adaptive picked non-minimal only %d/100 times despite congestion", nonMinimalPicked)
	}
}

func TestHighBiasPrefersMinimalUnderModerateCongestion(t *testing.T) {
	p, tt := newTestPolicy(t, 3)
	rng := rand.New(rand.NewSource(5))
	src := tt.RouterAt(topo.Coord{Group: 0, Chassis: 0, Blade: 0})
	dst := tt.RouterAt(topo.Coord{Group: 1, Chassis: 0, Blade: 0})

	// Moderate congestion on the direct global links: below the high bias but
	// above zero, so Adaptive detours while AdaptiveHighBias stays minimal.
	view := congestedView{congested: map[topo.LinkID]int64{}, prop: 10}
	moderate := (p.Params().HighBiasCycles + p.Params().LowBiasCycles) / 2
	for _, id := range tt.GlobalLinks(0, 1) {
		view.congested[id] = moderate
	}
	adaptiveNonMin, biasNonMin := 0, 0
	for i := 0; i < 200; i++ {
		if d := p.Route(Adaptive, src, dst, 5, 0, view, 0, rng); !d.Minimal {
			adaptiveNonMin++
		}
		if d := p.Route(AdaptiveHighBias, src, dst, 5, 0, view, 0, rng); !d.Minimal {
			biasNonMin++
		}
	}
	if biasNonMin >= adaptiveNonMin {
		t.Fatalf("high bias picked non-minimal %d times, adaptive %d times; bias must reduce non-minimal traffic",
			biasNonMin, adaptiveNonMin)
	}
}

func TestBiasOrdering(t *testing.T) {
	p, _ := newTestPolicy(t, 3)
	// The effective non-minimal bias must be monotone: Adaptive <= Low <= High.
	for hops := 1; hops <= topo.MaxMinimalHops; hops++ {
		a := p.bias(Adaptive, hops)
		l := p.bias(AdaptiveLowBias, hops)
		h := p.bias(AdaptiveHighBias, hops)
		if a > l || l > h {
			t.Fatalf("bias ordering violated at hops=%d: %d %d %d", hops, a, l, h)
		}
	}
}

func TestIMBBiasGrowsAsDestinationApproaches(t *testing.T) {
	p, _ := newTestPolicy(t, 3)
	far := p.bias(IncreasinglyMinimalBias, topo.MaxMinimalHops)
	near := p.bias(IncreasinglyMinimalBias, 1)
	if near <= far {
		t.Fatalf("IMB bias must grow as the minimal path shrinks: near=%d far=%d", near, far)
	}
}

func TestZeroViewCosts(t *testing.T) {
	v := ZeroView{Propagation: 7, CyclesPerFlit: 3}
	// No backlog at any time: propagation 7 plus 5 flits at 3 cycles each.
	for _, now := range []int64{0, 1 << 40} {
		if got := PathCost(topo.Path{0}, 5, v, now); got != 7+15 {
			t.Fatalf("PathCost(now=%d) = %d, want %d", now, got, 7+15)
		}
	}
	if got := PathCost(topo.Path{0}, 0, v, 0); got != 7 {
		t.Fatalf("zero-flit PathCost = %d, want the propagation 7", got)
	}
	// Every hop costs the same; below is cost < bound.
	three := topo.Path{0, 1, 2}
	if got := PathCost(three, 5, v, 0); got != 3*22 {
		t.Fatalf("three-hop PathCost = %d, want %d", got, 3*22)
	}
	if _, below := v.CostBelow(three, 5, 0, 3*22); below {
		t.Fatal("CostBelow reported a cost equal to the bound as below it")
	}
	if c, below := v.CostBelow(three, 5, 0, 3*22+1); !below || c != 3*22 {
		t.Fatalf("CostBelow(bound=cost+1) = %d, %v; want %d, true", c, below, 3*22)
	}
}

func TestMustNewPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewPolicy did not panic")
		}
	}()
	MustNewPolicy(topo.MustNew(topo.SmallConfig(2)), Params{})
}

// Property: for any random pair and mode, the returned path is a valid route
// between the two routers and the Minimal flag is consistent with path length.
func TestPropertyRouteValid(t *testing.T) {
	p, tt := newTestPolicy(t, 4)
	n := tt.NumRouters()
	modes := []Mode{Adaptive, IncreasinglyMinimalBias, AdaptiveLowBias, AdaptiveHighBias, MinHash, NonMinHash, InOrder}
	f := func(a, b uint16, m uint8, seed int64) bool {
		src := topo.RouterID(int(a) % n)
		dst := topo.RouterID(int(b) % n)
		mode := modes[int(m)%len(modes)]
		rng := rand.New(rand.NewSource(seed))
		d := p.Route(mode, src, dst, 5, uint64(seed), ZeroView{Propagation: 1, CyclesPerFlit: 1}, 0, rng)
		if err := tt.ValidatePath(src, dst, d.Path); err != nil {
			return false
		}
		if d.Minimal && len(d.Path) > topo.MaxMinimalHops {
			return false
		}
		if len(d.Path) > topo.MaxNonMinimalHops {
			return false
		}
		if src != dst && d.Cost <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: on an idle network, adaptive routing always selects a minimal path
// (no congestion means the bias-free cost of minimal candidates is lowest,
// since non-minimal paths have at least as many hops).
func TestPropertyIdleNetworkPrefersMinimal(t *testing.T) {
	p, tt := newTestPolicy(t, 4)
	n := tt.NumRouters()
	view := ZeroView{Propagation: 50, CyclesPerFlit: 2}
	f := func(a, b uint16, seed int64) bool {
		src := topo.RouterID(int(a) % n)
		dst := topo.RouterID(int(b) % n)
		rng := rand.New(rand.NewSource(seed))
		d := p.Route(AdaptiveHighBias, src, dst, 5, 0, view, 0, rng)
		return d.Minimal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRouteAdaptive(b *testing.B) {
	tt := topo.MustNew(topo.AriesConfig(6))
	p := MustNewPolicy(tt, DefaultParams())
	rng := rand.New(rand.NewSource(1))
	src := tt.RouterAt(topo.Coord{Group: 0, Chassis: 0, Blade: 0})
	dst := tt.RouterAt(topo.Coord{Group: 5, Chassis: 3, Blade: 9})
	// Box the view once, as the fabric passes itself: boxing per call would
	// charge Route an allocation it never makes.
	var view CongestionView = ZeroView{Propagation: 100, CyclesPerFlit: 1}
	p.Route(Adaptive, src, dst, 5, 0, view, 0, rng) // size the candidate buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Route(Adaptive, src, dst, 5, uint64(i), view, int64(i), rng)
	}
}
