package routing

import (
	"math/rand"
	"testing"

	"dragonfly/internal/topo"
)

func TestParseDecisionTrace(t *testing.T) {
	good := map[string]int{
		"":      0,
		"off":   0,
		"OFF":   0,
		"0":     0,
		"on":    DefaultDecisionCandidates,
		" On ":  DefaultDecisionCandidates,
		"1":     1,
		"4":     4,
		"8":     8,
		"k=2":   2,
		"K=8":   8,
		" k=3 ": 3,
		"k=0":   0,
	}
	for in, want := range good {
		got, err := ParseDecisionTrace(in)
		if err != nil || got != want {
			t.Fatalf("ParseDecisionTrace(%q) = (%d, %v), want (%d, nil)", in, got, err, want)
		}
	}
	for _, in := range []string{"9", "-1", "k=", "k=9", "two", "4.5", "0x4", "on=4"} {
		if k, err := ParseDecisionTrace(in); err == nil {
			t.Fatalf("ParseDecisionTrace(%q) = %d, want error", in, k)
		}
	}
}

func TestNewDecisionTraceValidation(t *testing.T) {
	for _, bad := range []struct{ groups, k, capacity int }{
		{0, 4, 16}, {3, 0, 16}, {3, MaxDecisionCandidates + 1, 16}, {3, 4, 0},
	} {
		if tr, err := NewDecisionTrace(bad.groups, bad.k, bad.capacity); err == nil {
			t.Fatalf("NewDecisionTrace(%+v) = %v, want error", bad, tr)
		}
	}
	tr, err := NewDecisionTrace(3, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tr.k != 4 || cap(tr.groups[0].buf) != 16 || len(tr.groups) != 3 || tr.Len() != 0 {
		t.Fatalf("unexpected trace shape: k=%d cap=%d groups=%d len=%d",
			tr.k, cap(tr.groups[0].buf), len(tr.groups), tr.Len())
	}
}

func TestRouteRecordsAdaptiveDecisions(t *testing.T) {
	p, tt := newTestPolicy(t, 3)
	tr, err := NewDecisionTrace(tt.Config().Groups, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	p.SetDecisionTrace(tr)
	if p.DecisionTrace() != tr {
		t.Fatal("DecisionTrace accessor lost the recorder")
	}

	rng := rand.New(rand.NewSource(21))
	view := ZeroView{Propagation: 10, CyclesPerFlit: 2}
	src := tt.RouterAt(topo.Coord{Group: 1, Chassis: 0, Blade: 0})
	dst := tt.RouterAt(topo.Coord{Group: 2, Chassis: 0, Blade: 1})

	const n = 20
	for i := 0; i < n; i++ {
		d := p.Route(Adaptive, src, dst, 5, 0, view, int64(i), rng)

		if got := tr.Recorded(); got != uint64(i+1) {
			t.Fatalf("after %d routes Recorded() = %d", i+1, got)
		}
		var last *TracedDecision
		tr.ForEach(func(g int, td *TracedDecision) {
			if g != int(tt.GroupOf(src)) {
				t.Fatalf("decision recorded under group %d, want %d", g, tt.GroupOf(src))
			}
			last = td
		})
		if last == nil || last.Now != int64(i) || last.Seq != uint64(i) {
			t.Fatalf("latest decision wrong: %+v", last)
		}
		if last.Mode != Adaptive || last.Src != src || last.Dst != dst || last.Flits != 5 {
			t.Fatalf("decision header wrong: %+v", last)
		}
		if last.NumCandidates != 4 {
			t.Fatalf("kept %d candidates, want 4", last.NumCandidates)
		}
		chosen := &last.Candidates[last.Chosen]
		if !pathsEqual(chosen.Path(), d.Path) {
			t.Fatalf("chosen candidate %v does not match decision path %v", chosen.Path(), d.Path)
		}
		if chosen.Minimal != d.Minimal {
			t.Fatalf("chosen minimality %v does not match decision %v", chosen.Minimal, d.Minimal)
		}
		wantCost := chosen.RawCost
		if !chosen.Minimal {
			wantCost += last.Bias
		}
		if wantCost != d.Cost {
			t.Fatalf("raw cost %d + bias does not reproduce decision cost %d", chosen.RawCost, d.Cost)
		}
		// The recorded selection must be replayable: no other candidate beats
		// the chosen one under the recorded bias (strict < as in Route).
		for i := 0; i < int(last.NumCandidates); i++ {
			c := &last.Candidates[i]
			cost := c.RawCost
			if !c.Minimal {
				cost += last.Bias
			}
			if cost < d.Cost {
				t.Fatalf("candidate %d cost %d beats the recorded choice %d", i, cost, d.Cost)
			}
		}
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d decisions with a non-full ring", tr.Dropped())
	}
}

func pathsEqual(a, b topo.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTraceChosenAlwaysKeptWithSmallK(t *testing.T) {
	p, tt := newTestPolicy(t, 3)
	tr, err := NewDecisionTrace(tt.Config().Groups, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	p.SetDecisionTrace(tr)
	rng := rand.New(rand.NewSource(22))
	view := ZeroView{Propagation: 10, CyclesPerFlit: 2}
	src := tt.RouterAt(topo.Coord{Group: 0, Chassis: 0, Blade: 0})
	dst := tt.RouterAt(topo.Coord{Group: 2, Chassis: 1, Blade: 0})
	for i := 0; i < 50; i++ {
		d := p.Route(Adaptive, src, dst, 5, 0, view, int64(i), rng)
		var last *TracedDecision
		tr.ForEach(func(_ int, td *TracedDecision) { last = td })
		if last.NumCandidates != 1 || last.Chosen != 0 {
			t.Fatalf("k=1 trace kept %d candidates, chosen %d", last.NumCandidates, last.Chosen)
		}
		if !pathsEqual(last.Candidates[0].Path(), d.Path) {
			t.Fatalf("k=1 trace lost the chosen path: %v vs %v", last.Candidates[0].Path(), d.Path)
		}
	}
}

func TestTraceRingWraparound(t *testing.T) {
	tr, err := NewDecisionTrace(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tr.Add(1, TracedDecision{Now: int64(i)})
	}
	if tr.Len() != 4 || tr.Recorded() != 10 || tr.Dropped() != 6 {
		t.Fatalf("ring bookkeeping wrong: len=%d recorded=%d dropped=%d",
			tr.Len(), tr.Recorded(), tr.Dropped())
	}
	var seqs []uint64
	var nows []int64
	tr.ForEach(func(g int, d *TracedDecision) {
		if g != 1 {
			t.Fatalf("decision in group %d, want 1", g)
		}
		seqs = append(seqs, d.Seq)
		nows = append(nows, d.Now)
	})
	for i := range seqs {
		want := uint64(6 + i) // oldest surviving decision is #6 of 0..9
		if seqs[i] != want || nows[i] != int64(want) {
			t.Fatalf("position %d: seq=%d now=%d, want %d (oldest to newest)", i, seqs[i], nows[i], want)
		}
	}

	tr.Reset()
	if tr.Len() != 0 || tr.Recorded() != 0 || tr.Dropped() != 0 {
		t.Fatalf("Reset left state behind: len=%d recorded=%d", tr.Len(), tr.Recorded())
	}
	tr.Add(0, TracedDecision{})
	var first *TracedDecision
	tr.ForEach(func(_ int, d *TracedDecision) { first = d })
	if first == nil || first.Seq != 0 {
		t.Fatalf("post-Reset sequence should restart at 0: %+v", first)
	}
}

func TestHashedModesAreNotTraced(t *testing.T) {
	p, tt := newTestPolicy(t, 3)
	tr, err := NewDecisionTrace(tt.Config().Groups, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	p.SetDecisionTrace(tr)
	rng := rand.New(rand.NewSource(23))
	view := ZeroView{Propagation: 10, CyclesPerFlit: 2}
	src := tt.RouterAt(topo.Coord{Group: 0, Chassis: 0, Blade: 0})
	dst := tt.RouterAt(topo.Coord{Group: 1, Chassis: 0, Blade: 0})
	for _, mode := range []Mode{MinHash, NonMinHash, InOrder} {
		p.Route(mode, src, dst, 5, 7, view, 0, rng)
	}
	p.Route(Adaptive, src, src, 5, 0, view, 0, rng) // loopback short-circuits too
	if tr.Recorded() != 0 {
		t.Fatalf("non-adaptive routes were traced: %d", tr.Recorded())
	}
}

// TestRouteAllocationFree is the tentpole's hot-path guarantee: Route must
// not allocate after warm-up, with tracing off (the default) AND with tracing
// on (rings are preallocated).
func TestRouteAllocationFree(t *testing.T) {
	p, tt := newTestPolicy(t, 3)
	rng := rand.New(rand.NewSource(31))
	// Convert to the interface once: boxing ZeroView per call would charge an
	// allocation to the measurement that Route itself never makes.
	var view CongestionView = ZeroView{Propagation: 10, CyclesPerFlit: 2}
	src := tt.RouterAt(topo.Coord{Group: 0, Chassis: 0, Blade: 0})
	dst := tt.RouterAt(topo.Coord{Group: 2, Chassis: 0, Blade: 1})
	route := func() { p.Route(Adaptive, src, dst, 5, 0, view, 0, rng) }

	for i := 0; i < 10; i++ {
		route() // warm up the candidate buffers
	}
	if allocs := testing.AllocsPerRun(200, route); allocs != 0 {
		t.Fatalf("Route with tracing OFF allocates %.1f/op, want 0", allocs)
	}

	tr, err := NewDecisionTrace(tt.Config().Groups, 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	p.SetDecisionTrace(tr)
	for i := 0; i < 10; i++ {
		route()
	}
	if allocs := testing.AllocsPerRun(200, route); allocs != 0 {
		t.Fatalf("Route with tracing ON allocates %.1f/op, want 0", allocs)
	}
}
