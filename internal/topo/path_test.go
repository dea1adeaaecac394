package topo

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMinimalPathSameRouter(t *testing.T) {
	tt := MustNew(SmallConfig(2))
	p := tt.MinimalPath(3, 3, nil)
	if len(p) != 0 {
		t.Fatalf("path to self has %d hops, want 0", len(p))
	}
}

func TestMinimalPathDirectNeighbors(t *testing.T) {
	tt := MustNew(SmallConfig(2))
	src := tt.RouterAt(Coord{0, 0, 0})
	dst := tt.RouterAt(Coord{0, 0, 1})
	p := tt.MinimalPath(src, dst, nil)
	if len(p) != 1 {
		t.Fatalf("intra-chassis minimal path has %d hops, want 1", len(p))
	}
	if err := tt.ValidatePath(src, dst, p); err != nil {
		t.Fatal(err)
	}
}

func TestMinimalPathIntraGroupTwoHops(t *testing.T) {
	tt := MustNew(SmallConfig(2))
	src := tt.RouterAt(Coord{0, 0, 0})
	dst := tt.RouterAt(Coord{0, 1, 1}) // different chassis and blade
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		p := tt.MinimalPath(src, dst, rng)
		if len(p) != 2 {
			t.Fatalf("diagonal intra-group minimal path has %d hops, want 2", len(p))
		}
		if err := tt.ValidatePath(src, dst, p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMinimalPathInterGroupBounds(t *testing.T) {
	tt := MustNew(AriesConfig(4))
	rng := rand.New(rand.NewSource(2))
	src := tt.RouterAt(Coord{0, 0, 0})
	dst := tt.RouterAt(Coord{2, 5, 15})
	for i := 0; i < 50; i++ {
		p := tt.MinimalPath(src, dst, rng)
		if len(p) == 0 || len(p) > MaxMinimalHops {
			t.Fatalf("inter-group minimal path has %d hops, want 1..%d", len(p), MaxMinimalHops)
		}
		if err := tt.ValidatePath(src, dst, p); err != nil {
			t.Fatal(err)
		}
		globals := 0
		for _, id := range p {
			if tt.Link(id).Type == LinkGlobal {
				globals++
			}
		}
		if globals != 1 {
			t.Fatalf("minimal inter-group path crosses %d global links, want 1", globals)
		}
	}
}

func TestNonMinimalPathInterGroup(t *testing.T) {
	tt := MustNew(AriesConfig(4))
	rng := rand.New(rand.NewSource(3))
	src := tt.RouterAt(Coord{0, 0, 0})
	dst := tt.RouterAt(Coord{1, 2, 3})
	sawIntermediate := false
	var c Candidate
	for i := 0; i < 50; i++ {
		tt.SampleNonMinimal(&c, src, dst, rng)
		p := c.Path()
		if len(p) == 0 || len(p) > MaxNonMinimalHops {
			t.Fatalf("non-minimal path has %d hops, want 1..%d", len(p), MaxNonMinimalHops)
		}
		if err := tt.ValidatePath(src, dst, p); err != nil {
			t.Fatal(err)
		}
		globals := 0
		for _, id := range p {
			if tt.Link(id).Type == LinkGlobal {
				globals++
			}
		}
		if globals == 2 {
			sawIntermediate = true
		}
	}
	if !sawIntermediate {
		t.Fatal("non-minimal inter-group paths never traversed an intermediate group")
	}
}

func TestNonMinimalPathIntraGroupLongerOrEqual(t *testing.T) {
	tt := MustNew(SmallConfig(2))
	rng := rand.New(rand.NewSource(4))
	src := tt.RouterAt(Coord{0, 0, 0})
	dst := tt.RouterAt(Coord{0, 0, 1})
	var c Candidate
	for i := 0; i < 30; i++ {
		pm := tt.MinimalPath(src, dst, rng)
		tt.SampleNonMinimal(&c, src, dst, rng)
		pn := c.Path()
		if err := tt.ValidatePath(src, dst, pn); err != nil {
			t.Fatal(err)
		}
		if len(pn) < len(pm) {
			t.Fatalf("non-minimal path (%d hops) shorter than minimal (%d hops)", len(pn), len(pm))
		}
	}
}

func TestSamplePathsCounts(t *testing.T) {
	tt := MustNew(SmallConfig(3))
	rng := rand.New(rand.NewSource(5))
	src := tt.RouterAt(Coord{0, 0, 0})
	dst := tt.RouterAt(Coord{2, 1, 2})
	var buf PathBuffer
	minimal, nonMinimal := tt.SamplePathsInto(&buf, src, dst, 2, 2, rng)
	if len(minimal) != 2 || len(nonMinimal) != 2 {
		t.Fatalf("SamplePathsInto returned %d minimal, %d non-minimal, want 2 and 2", len(minimal), len(nonMinimal))
	}
	for _, p := range minimal {
		if err := tt.ValidatePath(src, dst, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range nonMinimal {
		if err := tt.ValidatePath(src, dst, p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMinimalHops(t *testing.T) {
	tt := MustNew(SmallConfig(2))
	src := tt.RouterAt(Coord{0, 0, 0})
	if h := tt.MinimalHops(src, src); h != 0 {
		t.Fatalf("MinimalHops self = %d", h)
	}
	dst := tt.RouterAt(Coord{0, 0, 2})
	if h := tt.MinimalHops(src, dst); h != 1 {
		t.Fatalf("MinimalHops neighbor = %d, want 1", h)
	}
}

func TestValidatePathErrors(t *testing.T) {
	tt := MustNew(SmallConfig(2))
	src := tt.RouterAt(Coord{0, 0, 0})
	dst := tt.RouterAt(Coord{0, 0, 1})
	if err := tt.ValidatePath(src, dst, Path{LinkID(len(tt.Links()) + 5)}); err == nil {
		t.Fatal("expected error for out-of-range link id")
	}
	if err := tt.ValidatePath(src, dst, Path{}); err == nil {
		t.Fatal("expected error for empty path between distinct routers")
	}
	// Disconnected chain: two copies of the same link.
	id := tt.LinkBetween(src, dst)
	if err := tt.ValidatePath(src, dst, Path{id, id}); err == nil {
		t.Fatal("expected error for disconnected chain")
	}
}

// Property: every sampled minimal and non-minimal path between random router
// pairs is a valid connected chain, minimal paths never exceed MaxMinimalHops
// and non-minimal paths never exceed MaxNonMinimalHops.
func TestPropertyPathsValid(t *testing.T) {
	tt := MustNew(SmallConfig(4))
	n := tt.NumRouters()
	rng := rand.New(rand.NewSource(99))
	f := func(a, b uint16, seed int64) bool {
		src := RouterID(int(a) % n)
		dst := RouterID(int(b) % n)
		r := rand.New(rand.NewSource(seed))
		pm := tt.MinimalPath(src, dst, r)
		var c Candidate
		tt.SampleNonMinimal(&c, src, dst, r)
		pn := c.Path()
		if tt.ValidatePath(src, dst, pm) != nil || tt.ValidatePath(src, dst, pn) != nil {
			return false
		}
		if len(pm) > MaxMinimalHops || len(pn) > MaxNonMinimalHops {
			return false
		}
		if src == dst && (len(pm) != 0 || len(pn) != 0) {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: minimal inter-group paths traverse exactly one global link when
// the two groups are directly connected.
func TestPropertyMinimalOneGlobalHop(t *testing.T) {
	tt := MustNew(AriesConfig(3))
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 200; i++ {
		src := RouterID(rng.Intn(tt.NumRouters()))
		dst := RouterID(rng.Intn(tt.NumRouters()))
		if tt.GroupOf(src) == tt.GroupOf(dst) {
			continue
		}
		if len(tt.GlobalLinks(tt.GroupOf(src), tt.GroupOf(dst))) == 0 {
			continue
		}
		p := tt.MinimalPath(src, dst, rng)
		globals := 0
		for _, id := range p {
			if tt.Link(id).Type == LinkGlobal {
				globals++
			}
		}
		if globals != 1 {
			t.Fatalf("minimal path %v crosses %d globals", p, globals)
		}
	}
}

func BenchmarkMinimalPathInterGroup(b *testing.B) {
	tt := MustNew(AriesConfig(6))
	rng := rand.New(rand.NewSource(7))
	src := tt.RouterAt(Coord{0, 0, 0})
	dst := tt.RouterAt(Coord{5, 3, 7})
	var c Candidate
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tt.SampleMinimal(&c, src, dst, rng)
	}
}

func BenchmarkNonMinimalPathInterGroup(b *testing.B) {
	tt := MustNew(AriesConfig(6))
	rng := rand.New(rand.NewSource(8))
	src := tt.RouterAt(Coord{0, 0, 0})
	dst := tt.RouterAt(Coord{5, 3, 7})
	var c Candidate
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tt.SampleNonMinimal(&c, src, dst, rng)
	}
}
