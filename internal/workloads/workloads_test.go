package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"

	"dragonfly/internal/alloc"
	"dragonfly/internal/mpi"
	"dragonfly/internal/network"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// runWorkload executes a workload on n ranks and returns the elapsed simulated
// time and the total packets injected.
func runWorkload(t *testing.T, w Workload, n int, seed int64) (elapsed sim.Time, packets uint64) {
	t.Helper()
	tt := topo.MustNew(topo.SmallConfig(3))
	pol := routing.MustNewPolicy(tt, routing.DefaultParams())
	eng := sim.NewEngine(seed)
	fab := network.MustNew(eng, tt, pol, network.DefaultConfig())
	a := alloc.MustAllocate(tt, alloc.GroupStriped, n, nil, nil)
	c := mpi.MustNewComm(fab, a, mpi.Config{})
	s := mpi.NewScheduler(eng)
	defer s.Shutdown()
	start := eng.Now()
	if err := c.Start(s, w.Run); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(nil); err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	for i := 0; i < n; i++ {
		if err := c.Rank(i).Err(); err != nil {
			t.Fatalf("%s rank %d: %v", w.Name(), i, err)
		}
	}
	return eng.Now() - start, fab.PacketsInjected()
}

func TestFactor3D(t *testing.T) {
	cases := map[int][3]int{
		1:  {1, 1, 1},
		8:  {2, 2, 2},
		12: {3, 2, 2},
		27: {3, 3, 3},
		64: {4, 4, 4},
		60: {5, 4, 3},
	}
	for n, want := range cases {
		px, py, pz := Factor3D(n)
		if px*py*pz != n {
			t.Fatalf("Factor3D(%d) = %d*%d*%d != %d", n, px, py, pz, n)
		}
		if px != want[0] || py != want[1] || pz != want[2] {
			t.Fatalf("Factor3D(%d) = (%d,%d,%d), want %v", n, px, py, pz, want)
		}
	}
	if px, py, pz := Factor3D(0); px != 1 || py != 1 || pz != 1 {
		t.Fatal("Factor3D(0) must be all ones")
	}
}

func TestFactor2D(t *testing.T) {
	for _, n := range []int{1, 2, 6, 16, 30, 64} {
		px, py := Factor2D(n)
		if px*py != n || px < py {
			t.Fatalf("Factor2D(%d) = %d x %d", n, px, py)
		}
	}
	if px, py := Factor2D(-1); px != 1 || py != 1 {
		t.Fatal("Factor2D of non-positive must be 1x1")
	}
}

// Property: Factor3D always returns a valid factorization with px >= py >= pz.
func TestPropertyFactor3D(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw) + 1
		px, py, pz := Factor3D(n)
		return px*py*pz == n && px >= py && py >= pz && pz >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 255}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryAndNames(t *testing.T) {
	names := Names()
	if len(names) < 20 {
		t.Fatalf("expected at least 20 registered workloads, got %d", len(names))
	}
	for _, name := range names {
		w, err := New(name, 8, 0)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if w.Name() == "" {
			t.Fatalf("workload %q has empty name", name)
		}
	}
	if _, err := New("definitely-not-a-workload", 8, 0); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

// TestStencilAppSizeIsDomainEdge: SizeFor maps stencil workloads to a sane
// domain edge instead of interpreting message bytes as an edge length.
func TestStencilAppSizeIsDomainEdge(t *testing.T) {
	if got := SizeFor("halo3d", 32<<10); got != 256 {
		t.Fatalf("SizeFor(halo3d) = %d, want 256", got)
	}
	if got := SizeFor("alltoall", 32<<10); got != 32<<10 {
		t.Fatalf("SizeFor(alltoall) = %d, want %d", got, 32<<10)
	}
}

func TestFuncAdapter(t *testing.T) {
	called := false
	w := Func{WorkloadName: "custom", Body: func(r *mpi.Rank) { called = true }}
	if w.Name() != "custom" {
		t.Fatal("wrong name")
	}
	elapsed, _ := runWorkload(t, w, 2, 1)
	if !called {
		t.Fatal("body never called")
	}
	_ = elapsed
}

func TestPingPongOnlyTwoRanksTalk(t *testing.T) {
	w := &PingPong{MessageBytes: 4096, Iterations: 3}
	elapsed, packets := runWorkload(t, w, 6, 2)
	if elapsed <= 0 || packets == 0 {
		t.Fatalf("pingpong produced no progress: elapsed=%d packets=%d", elapsed, packets)
	}
	// 3 iterations x 2 directions x 64 packets per 4 KiB message.
	wantPackets := uint64(3 * 2 * 64)
	if packets != wantPackets {
		t.Fatalf("packets = %d, want %d (only ranks 0 and 1 should communicate)", packets, wantPackets)
	}
}

func TestPingPongDefaultPeersDistinct(t *testing.T) {
	w := &PingPong{MessageBytes: 128}
	if _, packets := runWorkload(t, w, 4, 3); packets == 0 {
		t.Fatal("default peers produced no traffic")
	}
}

func TestMicrobenchmarksComplete(t *testing.T) {
	micro := []Workload{
		&PingPong{MessageBytes: 1024, Iterations: 2},
		&Allreduce{Elements: 256, Iterations: 2},
		&Alltoall{MessageBytes: 512, Iterations: 2},
		&Barrier{Iterations: 3},
		&Broadcast{MessageBytes: 2048, Iterations: 2},
		NewHalo3D(8, 64, 2),
		NewSweep3D(8, 64, 1),
	}
	for _, w := range micro {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			elapsed, packets := runWorkload(t, w, 8, 4)
			if elapsed <= 0 {
				t.Fatalf("%s made no progress", w.Name())
			}
			if packets == 0 {
				t.Fatalf("%s injected no packets", w.Name())
			}
		})
	}
}

func TestMicrobenchmarksZeroIterationDefaults(t *testing.T) {
	// Zero/negative iteration counts default to one iteration.
	micro := []Workload{
		&PingPong{MessageBytes: 256},
		&Allreduce{Elements: 16},
		&Alltoall{MessageBytes: 128},
		&Barrier{},
		&Broadcast{MessageBytes: 128},
	}
	for _, w := range micro {
		if _, packets := runWorkload(t, w, 4, 5); packets == 0 {
			t.Fatalf("%s with default iterations injected no packets", w.Name())
		}
	}
}

func TestHalo3DMessageSizesScaleWithDomain(t *testing.T) {
	small := NewHalo3D(8, 64, 1)
	large := NewHalo3D(8, 256, 1)
	_, smallPackets := runWorkload(t, small, 8, 6)
	_, largePackets := runWorkload(t, large, 8, 6)
	if largePackets <= smallPackets {
		t.Fatalf("larger domain must send more data: %d vs %d packets", largePackets, smallPackets)
	}
}

func TestHalo3DNonCubicRanks(t *testing.T) {
	// 6 ranks -> 3x2x1 grid; must still complete.
	if _, packets := runWorkload(t, NewHalo3D(6, 64, 1), 6, 7); packets == 0 {
		t.Fatal("halo3d on non-cubic grid injected no packets")
	}
}

func TestSweep3DWavefrontOrdering(t *testing.T) {
	// The corner rank finishes first, the opposite corner last; total time
	// must exceed a single rank's local work (the wavefront serializes).
	w := NewSweep3D(4, 64, 1)
	elapsed, packets := runWorkload(t, w, 4, 8)
	if packets == 0 || elapsed <= 0 {
		t.Fatal("sweep3d made no progress")
	}
}

func TestApplicationProxiesComplete(t *testing.T) {
	ctors := map[string]func() Workload{
		"milc":    func() Workload { return NewMILC(8, 8) },
		"hpcg":    func() Workload { return NewHPCG(8, 16) },
		"fft":     func() Workload { return NewFFT(8, 32) },
		"bfs":     func() Workload { return NewBFS(8, 12) },
		"sssp":    func() Workload { return NewSSSP(8, 12) },
		"lammps":  func() Workload { return NewLAMMPS(8, 4) },
		"cp2k":    func() Workload { return NewCP2K(8, 16) },
		"nekbone": func() Workload { return NewNekbone(8, 64) },
		"wrf-b":   func() Workload { return NewWRF(8, 32, false) },
		"wrf-t":   func() Workload { return NewWRF(8, 32, true) },
		"qe":      func() Workload { return NewQuantumEspresso(8, 32) },
		"vpfft":   func() Workload { return NewVPFFT(8, 32) },
		"amber":   func() Workload { return NewAmber(8, 2) },
	}
	for name, ctor := range ctors {
		name, ctor := name, ctor
		t.Run(name, func(t *testing.T) {
			w := ctor()
			if w.Name() != name {
				t.Fatalf("workload name %q, want %q", w.Name(), name)
			}
			elapsed, packets := runWorkload(t, w, 8, 9)
			if elapsed <= 0 || packets == 0 {
				t.Fatalf("%s made no progress (elapsed=%d, packets=%d)", name, elapsed, packets)
			}
		})
	}
}

func TestApplicationProxiesDefaultScale(t *testing.T) {
	// A zero scale must fall back to a sensible default rather than sending
	// nothing or dividing by zero.
	for _, ctor := range []func() Workload{
		func() Workload { return NewMILC(4, 0) },
		func() Workload { return NewHPCG(4, 0) },
		func() Workload { return NewFFT(4, 0) },
		func() Workload { return NewBFS(4, 0) },
		func() Workload { return NewSSSP(4, 0) },
		func() Workload { return NewLAMMPS(4, 0) },
		func() Workload { return NewCP2K(4, 0) },
		func() Workload { return NewNekbone(4, 0) },
		func() Workload { return NewWRF(4, 0, false) },
		func() Workload { return NewQuantumEspresso(4, 0) },
		func() Workload { return NewVPFFT(4, 0) },
		func() Workload { return NewAmber(4, 0) },
	} {
		w := ctor()
		if _, packets := runWorkload(t, w, 4, 10); packets == 0 {
			t.Fatalf("%s with default scale injected no packets", w.Name())
		}
	}
}

func TestWRFVariantsDiffer(t *testing.T) {
	// The two variants differ only in their compute phase, so they inject the
	// same traffic; the total runtimes differ because compute both adds local
	// time and desynchronizes the halo exchanges.
	b, bPackets := runWorkload(t, NewWRF(8, 64, false), 8, 11)
	tr, trPackets := runWorkload(t, NewWRF(8, 64, true), 8, 11)
	if bPackets != trPackets {
		t.Fatalf("WRF variants sent different traffic: %d vs %d packets", bPackets, trPackets)
	}
	if b <= 0 || tr <= 0 || b == tr {
		t.Fatalf("WRF variants should complete with distinct runtimes: %d vs %d", b, tr)
	}
}

func TestComputeHeavyProxySlowerThanCommOnly(t *testing.T) {
	// halo3d (communication only) vs LAMMPS (compute heavy) with comparable
	// traffic: the proxy with compute must take longer per unit of traffic.
	_, haloPackets := runWorkload(t, NewHalo3D(8, 128, 10), 8, 12)
	lammpsTime, lammpsPackets := runWorkload(t, NewLAMMPS(8, 8), 8, 12)
	haloTime, _ := runWorkload(t, NewHalo3D(8, 128, 10), 8, 12)
	if haloPackets == 0 || lammpsPackets == 0 {
		t.Fatal("no traffic")
	}
	perPacketHalo := float64(haloTime) / float64(haloPackets)
	perPacketLammps := float64(lammpsTime) / float64(lammpsPackets)
	if perPacketLammps <= perPacketHalo {
		t.Fatalf("compute-heavy proxy should cost more time per packet: %.2f vs %.2f",
			perPacketLammps, perPacketHalo)
	}
}

// syntheticNames are the registered workloads that are not paper
// microbenchmarks or application proxies.
var syntheticNames = []string{"incast", "shift", "randomaccess", "transpose", "halo2d", "pipeline", "tuned-collectives"}

// TestRegistryGolden pins the traffic of every registered workload: each name
// at size 16 on 6 and 8 ranks, and the synthetic workloads on 8 ranks at
// 64 KiB and at size 0 (the CLI can pass a non-positive size). One sha256
// covers (name, ranks, size, elapsed cycles, packets) of every case.
func TestRegistryGolden(t *testing.T) {
	type rcase struct {
		name  string
		ranks int
		size  int64
	}
	var cases []rcase
	for _, name := range Names() {
		cases = append(cases, rcase{name, 6, 16}, rcase{name, 8, 16})
	}
	for _, size := range []int64{64 << 10, 0} {
		for _, name := range syntheticNames {
			cases = append(cases, rcase{name, 8, size})
		}
	}
	h := sha256.New()
	for _, c := range cases {
		w, err := New(c.name, c.ranks, c.size)
		if err != nil {
			t.Fatal(err)
		}
		elapsed, packets := runWorkload(t, w, c.ranks, 1)
		fmt.Fprintf(h, "%s %d %d %d %d\n", c.name, c.ranks, c.size, elapsed, packets)
	}
	const want = "dc1c598832200d7083cb8a798a731c5f664aee70b66708f4c9ecb400058acbdd"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("registry digest %s, want %s", got, want)
	}
}
