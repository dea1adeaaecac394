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

// TestTrackerMillionCycleNoLeak is the tracker's leak test, in the style of
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
}
