package alloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dragonfly/internal/topo"
)

func TestPolicyStringAndParse(t *testing.T) {
	for _, p := range []Policy{Contiguous, RandomScatter, GroupStriped} {
		s := p.String()
		if s == "" {
			t.Fatalf("empty string for policy %d", p)
		}
		back, err := ParsePolicy(s)
		if err != nil || back != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, back, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
	if Policy(99).String() == "" {
		t.Fatal("unknown policy must still format")
	}
}

func TestAllocateContiguous(t *testing.T) {
	tt := topo.MustNew(topo.SmallConfig(2))
	a, err := Allocate(tt, Contiguous, 6, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != 6 {
		t.Fatalf("size = %d", a.Size())
	}
	for i, n := range a.Nodes() {
		if n != topo.NodeID(i) {
			t.Fatalf("contiguous allocation not in node order: %v", a.Nodes())
		}
	}
	// 6 nodes with 2 nodes per blade -> 3 routers, 1 group.
	if a.NumRouters() != 3 || a.NumGroups() != 1 {
		t.Fatalf("routers=%d groups=%d, want 3 and 1", a.NumRouters(), a.NumGroups())
	}
	if !a.Contains(0) || a.Contains(topo.NodeID(tt.NumNodes()-1)) {
		t.Fatal("Contains wrong")
	}
	if a.Node(2) != 2 {
		t.Fatalf("Node(2) = %d", a.Node(2))
	}
	if a.String() == "" {
		t.Fatal("empty String")
	}
}

func TestAllocateRandomScatter(t *testing.T) {
	tt := topo.MustNew(topo.SmallConfig(3))
	rng := rand.New(rand.NewSource(1))
	a, err := Allocate(tt, RandomScatter, 12, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != 12 {
		t.Fatalf("size = %d", a.Size())
	}
	seen := map[topo.NodeID]bool{}
	for _, n := range a.Nodes() {
		if seen[n] {
			t.Fatal("duplicate node in allocation")
		}
		seen[n] = true
	}
	if _, err := Allocate(tt, RandomScatter, 4, nil, nil); err == nil {
		t.Fatal("RandomScatter without rng must fail")
	}
}

func TestAllocateGroupStriped(t *testing.T) {
	tt := topo.MustNew(topo.SmallConfig(3))
	a, err := Allocate(tt, GroupStriped, 9, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumGroups() != 3 {
		t.Fatalf("striped allocation spans %d groups, want 3", a.NumGroups())
	}
	// Each group should receive 3 of the 9 nodes.
	count := map[topo.GroupID]int{}
	for _, n := range a.Nodes() {
		count[tt.GroupOfNode(n)]++
	}
	for g, c := range count {
		if c != 3 {
			t.Fatalf("group %d received %d nodes, want 3", g, c)
		}
	}
}

func TestAllocateErrors(t *testing.T) {
	tt := topo.MustNew(topo.SmallConfig(2))
	if _, err := Allocate(tt, Contiguous, 0, nil, nil); err == nil {
		t.Fatal("zero-size job must fail")
	}
	if _, err := Allocate(tt, Contiguous, tt.NumNodes()+1, nil, nil); err == nil {
		t.Fatal("oversubscription must fail")
	}
	if _, err := Allocate(tt, Policy(42), 2, nil, nil); err == nil {
		t.Fatal("unknown policy must fail")
	}
}

func TestAllocateWithExclusion(t *testing.T) {
	tt := topo.MustNew(topo.SmallConfig(2))
	first, err := Allocate(tt, Contiguous, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	exclude := make(map[topo.NodeID]bool)
	for _, n := range first.Nodes() {
		exclude[n] = true
	}
	second, err := Allocate(tt, Contiguous, 4, nil, exclude)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range second.Nodes() {
		if first.Contains(n) {
			t.Fatalf("node %d allocated twice", n)
		}
	}
}

func TestMustAllocatePanics(t *testing.T) {
	tt := topo.MustNew(topo.SmallConfig(2))
	defer func() {
		if recover() == nil {
			t.Fatal("MustAllocate did not panic")
		}
	}()
	MustAllocate(tt, Contiguous, 0, nil, nil)
}

func TestPairForClass(t *testing.T) {
	tt := topo.MustNew(topo.SmallConfig(2))
	classes := []topo.AllocationClass{
		topo.AllocSameNode, topo.AllocInterNodes, topo.AllocInterBlades,
		topo.AllocInterChassis, topo.AllocInterGroups,
	}
	for _, c := range classes {
		a, b, err := PairForClass(tt, c)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if got := tt.Classify(a, b); got != c {
			t.Fatalf("PairForClass(%v) produced pair of class %v", c, got)
		}
	}
	// Single-group topology cannot provide inter-group pairs.
	single := topo.MustNew(topo.SmallConfig(1))
	if _, _, err := PairForClass(single, topo.AllocInterGroups); err == nil {
		t.Fatal("expected error for inter-group pair on single-group system")
	}
	if _, _, err := PairForClass(tt, topo.AllocationClass(77)); err == nil {
		t.Fatal("expected error for unknown class")
	}
}

// Property: allocations never contain duplicates, never contain excluded
// nodes, and always have exactly the requested size.
func TestPropertyAllocationWellFormed(t *testing.T) {
	tt := topo.MustNew(topo.SmallConfig(3))
	f := func(nRaw uint8, policyRaw uint8, seed int64, excludeFirst bool) bool {
		n := int(nRaw)%16 + 1
		policy := []Policy{Contiguous, RandomScatter, GroupStriped}[int(policyRaw)%3]
		rng := rand.New(rand.NewSource(seed))
		exclude := map[topo.NodeID]bool{}
		if excludeFirst {
			exclude[0] = true
			exclude[1] = true
		}
		a, err := Allocate(tt, policy, n, rng, exclude)
		if err != nil {
			return false
		}
		if a.Size() != n {
			return false
		}
		seen := map[topo.NodeID]bool{}
		for _, node := range a.Nodes() {
			if seen[node] || exclude[node] {
				return false
			}
			if int(node) < 0 || int(node) >= tt.NumNodes() {
				return false
			}
			seen[node] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
