package workloads

import (
	"testing"
	"testing/quick"
)

func TestIncastCompletesAndLoadsVictim(t *testing.T) {
	const n = 8
	w := &Incast{Victim: 0, MessageBytes: 2048, Iterations: 2}
	elapsed, packets := runWorkload(t, w, n, 41)
	if elapsed <= 0 || packets == 0 {
		t.Fatalf("incast produced elapsed=%d packets=%d", elapsed, packets)
	}
}

func TestIncastInvalidVictimFallsBackToZero(t *testing.T) {
	w := &Incast{Victim: 99, MessageBytes: 512, Iterations: 1}
	if _, packets := runWorkload(t, w, 4, 42); packets == 0 {
		t.Fatal("incast with out-of-range victim generated no traffic")
	}
}

func TestShiftCompletesForVariousDistances(t *testing.T) {
	for _, dist := range []int{1, 3, 5, 8, -2} {
		w := &Shift{Distance: dist, MessageBytes: 1024, Iterations: 2}
		if _, packets := runWorkload(t, w, 6, 43); packets == 0 {
			t.Fatalf("shift distance %d generated no traffic", dist)
		}
	}
}

func TestShiftSingleRankIsNoop(t *testing.T) {
	w := &Shift{Distance: 1, MessageBytes: 1024, Iterations: 1}
	if _, packets := runWorkload(t, w, 1, 44); packets != 0 {
		t.Fatal("single-rank shift generated traffic")
	}
}

func TestRandomAccessSendReceiveCountsMatch(t *testing.T) {
	// The workload predicts incoming messages from the shared seeded streams;
	// if the prediction were wrong, the ranks would deadlock and runWorkload
	// would fail. Completing at all is the property under test.
	for _, n := range []int{2, 4, 7, 8} {
		w := &RandomAccess{UpdateBytes: 16, UpdatesPerRank: 12, Seed: 9}
		if _, packets := runWorkload(t, w, n, 45); packets == 0 {
			t.Fatalf("n=%d: random access generated no traffic", n)
		}
	}
}

func TestRandomAccessDefaultsApplied(t *testing.T) {
	w := &RandomAccess{Seed: 3}
	if _, packets := runWorkload(t, w, 4, 46); packets == 0 {
		t.Fatal("random access with default parameters generated no traffic")
	}
}

func TestTransposeCompletes(t *testing.T) {
	for _, n := range []int{4, 6, 9, 12} {
		w := &Transpose{BlockBytes: 4096, Iterations: 2}
		if _, packets := runWorkload(t, w, n, 47); packets == 0 {
			t.Fatalf("n=%d: transpose generated no traffic", n)
		}
	}
}

func TestHalo2DCompletes(t *testing.T) {
	w := &Halo2D{FaceBytes: 2048, Iterations: 3, ComputeCycles: 500}
	elapsed, packets := runWorkload(t, w, 9, 48)
	if packets == 0 {
		t.Fatal("halo2d generated no traffic")
	}
	if elapsed < 3*500 {
		t.Fatalf("halo2d elapsed %d cycles, want at least the compute time", elapsed)
	}
}

func TestPipelineOrderingAndTraffic(t *testing.T) {
	w := &Pipeline{BlockBytes: 1024, Stages: 3, ComputeCycles: 100}
	if _, packets := runWorkload(t, w, 5, 49); packets == 0 {
		t.Fatal("pipeline generated no traffic")
	}
}

func TestTunedCollectivesWorkload(t *testing.T) {
	w := &TunedCollectives{SmallBytes: 64, LargeBytes: 32 << 10, Iterations: 1}
	if _, packets := runWorkload(t, w, 8, 50); packets == 0 {
		t.Fatal("tuned collectives generated no traffic")
	}
	// Zero-value sizes and tuning must fall back to defaults.
	w = &TunedCollectives{}
	if _, packets := runWorkload(t, w, 4, 51); packets == 0 {
		t.Fatal("tuned collectives with defaults generated no traffic")
	}
}

func TestSyntheticWorkloadsRegistered(t *testing.T) {
	reg := Registry()
	for _, name := range []string{"incast", "shift", "randomaccess", "transpose", "halo2d", "pipeline", "tuned-collectives"} {
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

// TestShiftDistanceNormalizationProperty checks that the effective shift
// destination is never the sender itself for communicators of size >= 2.
func TestShiftDistanceNormalizationProperty(t *testing.T) {
	prop := func(distRaw int8, nRaw uint8) bool {
		n := int(nRaw%14) + 2
		d := int(distRaw) % n
		if d <= 0 {
			d += n
			if d == n {
				d = 1
			}
		}
		return d >= 1 && d < n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
