package workloads

import "testing"

// mustNew builds a registered workload or fails the test.
func mustNew(t *testing.T, name string, ranks int, size int64) Workload {
	t.Helper()
	w, err := New(name, ranks, size)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestIncastCompletesAndLoadsVictim(t *testing.T) {
	const n = 8
	elapsed, packets := runWorkload(t, mustNew(t, "incast", n, 2048), n, 41)
	// Seven senders of 32 packets each, plus the barrier's messages.
	if elapsed <= 0 || packets < (n-1)*32 {
		t.Fatalf("incast produced elapsed=%d packets=%d", elapsed, packets)
	}
}

// TestShiftCompletesForVariousDistances runs shift on every communicator size
// from 2 to 15. The distance is ranks/2+1, so 2 ranks wrap it to 1 and the
// others shift by 2 to 8. Every rank sends one 16-packet message to another
// rank; a send to itself would inject no packets and miss the exact count.
func TestShiftCompletesForVariousDistances(t *testing.T) {
	for n := 2; n <= 15; n++ {
		if _, packets := runWorkload(t, mustNew(t, "shift", n, 1024), n, 43); packets != uint64(n)*16 {
			t.Fatalf("shift on %d ranks injected %d packets, want %d", n, packets, n*16)
		}
	}
}

// TestShiftDistanceNormalizationProperty: whatever distance the workload was
// built with, a rank never sends to itself. For every communicator size n in
// 2…15, constructors of 1, 3, …, 2n-1 ranks give the distances 1…n, so every
// residue mod n is run, including the multiple of n that wraps to 1.
func TestShiftDistanceNormalizationProperty(t *testing.T) {
	for n := 2; n <= 15; n++ {
		for ranks := 1; ranks < 2*n; ranks += 2 {
			if _, packets := runWorkload(t, mustNew(t, "shift", ranks, 1024), n, 53); packets != uint64(n)*16 {
				t.Fatalf("shift built for %d ranks on %d ranks injected %d packets, want %d", ranks, n, packets, n*16)
			}
		}
	}
}

func TestShiftSingleRankIsNoop(t *testing.T) {
	if _, packets := runWorkload(t, mustNew(t, "shift", 1, 1024), 1, 44); packets != 0 {
		t.Fatal("single-rank shift generated traffic")
	}
}

func TestRandomAccessSendReceiveCountsMatch(t *testing.T) {
	// The workload predicts incoming messages from the shared seeded streams;
	// if the prediction were wrong, the ranks would deadlock and runWorkload
	// would fail. Completing at all is the property under test.
	for _, n := range []int{2, 4, 7, 8} {
		if _, packets := runWorkload(t, mustNew(t, "randomaccess", n, 16), n, 45); packets == 0 {
			t.Fatalf("n=%d: random access generated no traffic", n)
		}
	}
}

// TestRandomAccessDefaultsApplied: a non-positive size (the CLI can pass
// one) sends the default 8-byte updates.
func TestRandomAccessDefaultsApplied(t *testing.T) {
	zeroTime, zeroPackets := runWorkload(t, mustNew(t, "randomaccess", 4, 0), 4, 46)
	eightTime, eightPackets := runWorkload(t, mustNew(t, "randomaccess", 4, 8), 4, 46)
	if zeroPackets == 0 || zeroTime != eightTime || zeroPackets != eightPackets {
		t.Fatalf("size 0 ran %d cycles, %d packets; size 8 ran %d cycles, %d packets",
			zeroTime, zeroPackets, eightTime, eightPackets)
	}
}

func TestTransposeCompletes(t *testing.T) {
	for _, n := range []int{4, 6, 9, 12} {
		if _, packets := runWorkload(t, mustNew(t, "transpose", n, 4096), n, 47); packets == 0 {
			t.Fatalf("n=%d: transpose generated no traffic", n)
		}
	}
}

func TestHalo2DCompletes(t *testing.T) {
	// A 3x3 grid has 24 directed neighbour pairs, each one 32-packet face.
	elapsed, packets := runWorkload(t, mustNew(t, "halo2d", 9, 2048), 9, 48)
	if elapsed <= 0 || packets != 24*32 {
		t.Fatalf("halo2d produced elapsed=%d packets=%d, want %d packets", elapsed, packets, 24*32)
	}
}

func TestPipelineOrderingAndTraffic(t *testing.T) {
	// Four blocks of 16 packets cross each of the four links of a 5-rank
	// pipeline.
	if _, packets := runWorkload(t, mustNew(t, "pipeline", 5, 1024), 5, 49); packets != 4*4*16 {
		t.Fatalf("pipeline injected %d packets, want %d", packets, 4*4*16)
	}
}

func TestTunedCollectivesWorkload(t *testing.T) {
	if _, packets := runWorkload(t, mustNew(t, "tuned-collectives", 8, 32<<10), 8, 50); packets == 0 {
		t.Fatal("tuned collectives generated no traffic")
	}
}

func TestSyntheticWorkloadsRegistered(t *testing.T) {
	reg := Registry()
	for _, name := range syntheticNames {
		ctor, ok := reg[name]
		if !ok {
			t.Fatalf("workload %q not registered", name)
		}
		w := ctor(8, 1024)
		if w.Name() == "" {
			t.Fatalf("workload %q has empty name", name)
		}
	}
}

func TestRegisteredSyntheticWorkloadsRun(t *testing.T) {
	for _, name := range []string{"incast", "shift", "randomaccess", "transpose", "halo2d", "pipeline"} {
		w, err := New(name, 6, 512)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if _, packets := runWorkload(t, w, 6, 52); packets == 0 {
			t.Fatalf("registered workload %q generated no traffic", name)
		}
	}
}
