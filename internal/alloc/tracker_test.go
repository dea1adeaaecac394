package alloc

import (
	"math/rand"
	"testing"

	"dragonfly/internal/topo"
)

func trackerTopo(t *testing.T, groups int) *topo.Topology {
	t.Helper()
	return topo.MustNew(topo.SmallConfig(groups))
}

// TestTrackerMatchesAllocateSemantics checks the incremental allocator hands
// out the same node sets as the one-shot Allocate on an identical machine
// state, for the deterministic policies.
func TestTrackerMatchesAllocateSemantics(t *testing.T) {
	tp := trackerTopo(t, 4)
	for _, policy := range []Policy{Contiguous, GroupStriped} {
		k := NewTracker(tp)
		var got []topo.NodeID
		var exclude map[topo.NodeID]bool
		for round := 0; round < 3; round++ {
			got, _ = k.Allocate(policy, 10, nil, got[:0])
			want, err := Allocate(tp, policy, 10, nil, exclude)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want.Nodes()) {
				t.Fatalf("%v round %d: %d nodes, want %d", policy, round, len(got), len(want.Nodes()))
			}
			for i := range got {
				if got[i] != want.Nodes()[i] {
					t.Fatalf("%v round %d: tracker chose %v, Allocate chose %v",
						policy, round, got, want.Nodes())
				}
			}
			if exclude == nil {
				exclude = make(map[topo.NodeID]bool)
			}
			for _, n := range got {
				exclude[n] = true
			}
		}
	}
}

// TestTrackerFragmentationBoundary pins the metric's boundary convention:
// 0 on an empty machine and 0 on a full machine.
func TestTrackerFragmentationBoundary(t *testing.T) {
	tp := trackerTopo(t, 4)
	k := NewTracker(tp)
	if f := k.Fragmentation(); f != 0 {
		t.Fatalf("empty machine: fragmentation %v, want 0", f)
	}
	nodes, err := k.Allocate(Contiguous, tp.NumNodes(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f := k.Fragmentation(); f != 0 {
		t.Fatalf("full machine: fragmentation %v, want 0", f)
	}
	// One contiguous free block is also unfragmented.
	k.Free(nodes[:16])
	if f := k.Fragmentation(); f != 0 {
		t.Fatalf("single free run: fragmentation %v, want 0", f)
	}
	k.Free(nodes[16:])
	if f := k.Fragmentation(); f != 0 {
		t.Fatalf("emptied machine: fragmentation %v, want 0", f)
	}
}

// TestTrackerFragmentationMonotone drives an adversarial interleaving: from a
// full machine, free isolated single nodes one by one (stride 2, so no two
// free nodes are ever adjacent). Every free node is its own run, so the
// metric must rise monotonically toward 1.
func TestTrackerFragmentationMonotone(t *testing.T) {
	tp := trackerTopo(t, 4)
	k := NewTracker(tp)
	if _, err := k.Allocate(Contiguous, tp.NumNodes(), nil, nil); err != nil {
		t.Fatal(err)
	}
	prev := k.Fragmentation()
	for n := 1; n < tp.NumNodes(); n += 2 {
		k.Free([]topo.NodeID{topo.NodeID(n)})
		f := k.Fragmentation()
		if f < prev {
			t.Fatalf("fragmentation dropped from %v to %v after freeing isolated node %d", prev, f, n)
		}
		if f < 0 || f > 1 {
			t.Fatalf("fragmentation %v out of [0, 1]", f)
		}
		prev = f
	}
	// total/2 single-node holes: largest run 1.
	want := 1 - 1/float64(tp.NumNodes()/2)
	if prev != want {
		t.Fatalf("checkerboard fragmentation %v, want %v", prev, want)
	}
}

// TestTrackerFreeThenReallocate checks Free returns nodes an immediate
// re-Allocate can use: drain the machine completely, free everything, and the
// next contiguous allocation gets the same first nodes again.
func TestTrackerFreeThenReallocate(t *testing.T) {
	tp := trackerTopo(t, 2)
	k := NewTracker(tp)
	rng := rand.New(rand.NewSource(9))
	first, err := k.Allocate(Contiguous, 8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := k.Allocate(RandomScatter, k.FreeNodes(), rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k.FreeNodes() != 0 {
		t.Fatalf("machine should be full, %d free", k.FreeNodes())
	}
	if _, err := k.Allocate(Contiguous, 1, nil, nil); err == nil {
		t.Fatalf("allocation on a full machine unexpectedly succeeded")
	}
	k.Free(first)
	if k.FreeNodes() != 8 {
		t.Fatalf("freed 8 nodes but %d are free", k.FreeNodes())
	}
	again, err := k.Allocate(Contiguous, 8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if again[i] != first[i] {
			t.Fatalf("re-allocation diverged: %v vs %v", again, first)
		}
	}
	k.Free(again)
	k.Free(rest)
	if k.FreeNodes() != tp.NumNodes() {
		t.Fatalf("machine should be empty, %d/%d free", k.FreeNodes(), tp.NumNodes())
	}
}

// TestTrackerDoubleFreePanics pins the double-free guard.
func TestTrackerDoubleFreePanics(t *testing.T) {
	k := NewTracker(trackerTopo(t, 2))
	nodes, err := k.Allocate(Contiguous, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Free(nodes[:1])
	defer func() {
		if recover() == nil {
			t.Fatalf("double free did not panic")
		}
	}()
	k.Free(nodes[:1])
}

// TestTrackerMillionCycleNoLeak is the open-stream leak test, in the style of
// TestSchedulerNeverOversubscribes: a million random alloc/free cycles across
// every policy, with the free count re-derived from scratch periodically.
// Any lost or duplicated node shows up as a free-count drift.
func TestTrackerMillionCycleNoLeak(t *testing.T) {
	tp := trackerTopo(t, 4)
	k := NewTracker(tp)
	rng := rand.New(rand.NewSource(4242))
	policies := []Policy{Contiguous, RandomScatter, GroupStriped}

	type held struct{ nodes []topo.NodeID }
	var live []held
	var buf []topo.NodeID
	heldNodes := 0
	const cycles = 1_000_000
	for i := 0; i < cycles; i++ {
		if free := k.FreeNodes(); free != tp.NumNodes()-heldNodes {
			t.Fatalf("cycle %d: tracker reports %d free, bookkeeping says %d",
				i, free, tp.NumNodes()-heldNodes)
		}
		doAlloc := k.FreeNodes() > 8 && (len(live) == 0 || rng.Intn(2) == 0)
		if doAlloc {
			n := 1 + rng.Intn(8)
			buf = buf[:0]
			nodes, err := k.Allocate(policies[i%len(policies)], n, rng, buf)
			if err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
			cp := make([]topo.NodeID, len(nodes))
			copy(cp, nodes)
			live = append(live, held{nodes: cp})
			heldNodes += n
		} else {
			j := rng.Intn(len(live))
			k.Free(live[j].nodes)
			heldNodes -= len(live[j].nodes)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if i%100_000 == 0 {
			// Re-derive the free count from the bitset: any drift is a leak.
			busy := 0
			for n := 0; n < tp.NumNodes(); n++ {
				if k.Busy(topo.NodeID(n)) {
					busy++
				}
			}
			if busy != heldNodes {
				t.Fatalf("cycle %d: bitset holds %d busy nodes, jobs hold %d", i, busy, heldNodes)
			}
		}
	}
	for _, h := range live {
		k.Free(h.nodes)
	}
	if k.FreeNodes() != tp.NumNodes() {
		t.Fatalf("after %d cycles: %d/%d nodes free — leak", cycles, k.FreeNodes(), tp.NumNodes())
	}
	if f := k.Fragmentation(); f != 0 {
		t.Fatalf("empty machine after churn reports fragmentation %v", f)
	}
}

// TestTrackerFragmentationMatchesNodeScan checks the word-wise Fragmentation
// against a per-node scan for the largest free run, after every step of
// random Allocate/Free sequences, on machines whose last bitset word is
// partial (32, 48 and 80 nodes) and one that fills whole words (768 nodes).
func TestTrackerFragmentationMatchesNodeScan(t *testing.T) {
	nodeScan := func(k *Tracker) float64 {
		if k.FreeNodes() == 0 || k.FreeNodes() == k.NumNodes() {
			return 0
		}
		largest, run := 0, 0
		for n := 0; n < k.NumNodes(); n++ {
			if k.Busy(topo.NodeID(n)) {
				run = 0
				continue
			}
			run++
			largest = max(largest, run)
		}
		return 1 - float64(largest)/float64(k.FreeNodes())
	}
	machines := []topo.Config{topo.SmallConfig(2), topo.SmallConfig(3), topo.SmallConfig(5), topo.AriesConfig(2)}
	for _, cfg := range machines {
		tp := topo.MustNew(cfg)
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			k := NewTracker(tp)
			var live [][]topo.NodeID
			for step := 0; step < 300; step++ {
				if len(live) > 0 && (k.FreeNodes() == 0 || rng.Intn(3) == 0) {
					i := rng.Intn(len(live))
					k.Free(live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					policy := []Policy{Contiguous, RandomScatter, GroupStriped}[rng.Intn(3)]
					n := 1 + rng.Intn(min(k.FreeNodes(), max(tp.NumNodes()/8, 1)))
					nodes, err := k.Allocate(policy, n, rng, nil)
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, nodes)
				}
				if got, want := k.Fragmentation(), nodeScan(k); got != want {
					t.Fatalf("%d nodes, seed %d, step %d: Fragmentation %v, node scan %v",
						tp.NumNodes(), seed, step, got, want)
				}
			}
		}
	}
}
