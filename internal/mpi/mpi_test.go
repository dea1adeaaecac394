package mpi

import (
	"testing"

	"dragonfly/internal/alloc"
	"dragonfly/internal/core"
	"dragonfly/internal/network"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// testComm builds a communicator of n ranks on a small 3-group system with a
// group-striped allocation (so traffic crosses groups).
func testComm(t testing.TB, n int, cfg Config, seed int64) *Comm {
	t.Helper()
	return testCommOn(t, topo.SmallConfig(3), n, cfg, seed)
}

// testCommOn is testComm on the given machine.
func testCommOn(t testing.TB, machine topo.Config, n int, cfg Config, seed int64) *Comm {
	t.Helper()
	tt := topo.MustNew(machine)
	pol := routing.MustNewPolicy(tt, routing.DefaultParams())
	eng := sim.NewEngine(seed)
	fab := network.MustNew(eng, tt, pol, network.DefaultConfig())
	a := alloc.MustAllocate(tt, alloc.GroupStriped, n, nil, nil)
	return MustNewComm(fab, a, cfg)
}

// runComm runs program on every rank of c to completion, on a scheduler of
// its own, and returns what Scheduler.Run returns.
func runComm(c *Comm, program func(*Rank)) error {
	s := NewScheduler(c.engine())
	defer s.Shutdown()
	if err := c.Start(s, program); err != nil {
		return err
	}
	return s.Run(nil)
}

// queueLens returns the number of receives r has posted and of messages it
// holds unmatched.
func queueLens(r *Rank) (posted, unexpected int) {
	return len(r.posted.items) - r.posted.head, len(r.unexpected.items) - r.unexpected.head
}

func TestPingPong(t *testing.T) {
	c := testComm(t, 2, Config{}, 1)
	const size = 4096
	var rtt sim.Time
	err := runComm(c, func(r *Rank) {
		switch r.Rank() {
		case 0:
			start := r.Now()
			r.Send(1, size, core.PointToPoint)
			r.Recv(1)
			rtt = r.Now() - start
		case 1:
			r.Recv(0)
			r.Send(0, size, core.PointToPoint)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if e := c.Rank(i).Err(); e != nil {
			t.Fatalf("rank %d error: %v", i, e)
		}
	}
	if rtt <= 0 {
		t.Fatalf("round trip took %d cycles", rtt)
	}
	// Both directions must have produced NIC traffic.
	if c.Fabric().NodeCounters(c.Allocation().Node(0)).RequestPackets == 0 ||
		c.Fabric().NodeCounters(c.Allocation().Node(1)).RequestPackets == 0 {
		t.Fatal("NIC counters empty after ping-pong")
	}
}

func TestFIFOMatchingPerPair(t *testing.T) {
	c := testComm(t, 2, Config{}, 2)
	var sizes []int64
	err := runComm(c, func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(1, 64, core.PointToPoint)
			r.Send(1, 128, core.PointToPoint)
			r.Send(1, 256, core.PointToPoint)
		case 1:
			for i := 0; i < 3; i++ {
				d := r.Recv(0)
				sizes = append(sizes, d.Size)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 || sizes[0] != 64 || sizes[1] != 128 || sizes[2] != 256 {
		t.Fatalf("messages not matched in FIFO order: %v", sizes)
	}
}

func TestComputeAdvancesTime(t *testing.T) {
	c := testComm(t, 1, Config{}, 3)
	var elapsed sim.Time
	err := runComm(c, func(r *Rank) {
		start := r.Now()
		r.Compute(12345)
		elapsed = r.Now() - start
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 12345 {
		t.Fatalf("Compute advanced %d cycles, want 12345", elapsed)
	}
}

func TestInvalidPeerSetsErr(t *testing.T) {
	c := testComm(t, 2, Config{}, 4)
	err := runComm(c, func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(5, 64, core.PointToPoint) // invalid peer
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Rank(0).Err() == nil {
		t.Fatal("expected rank error for invalid peer")
	}
}

// TestFailedCallLeavesPostedReceive: a SendRecv whose send fails after its
// receive was posted leaves that receive on the rank's own request, posted.
// Later blocking calls return nil at once and must not rewrite it, so the
// message that arrives for it still matches it. A Recv that fails itself
// returns nil too.
func TestFailedCallLeavesPostedReceive(t *testing.T) {
	c := testComm(t, 3, Config{}, 4)
	var later, failed *network.Delivery
	err := runComm(c, func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.SendRecv(5, 64, 1, core.PointToPoint) // invalid send peer
			later = r.Recv(2)
		case 1:
			r.Send(0, 64, core.PointToPoint)
		case 2:
			failed = r.Recv(7) // invalid peer
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if later != nil || failed != nil {
		t.Fatalf("Recv after a failure returned %v, failed Recv returned %v; want nil", later, failed)
	}
	r := c.Rank(0)
	if r.Err() == nil || c.Rank(2).Err() == nil {
		t.Fatal("expected rank errors for invalid peers")
	}
	if d := r.recvReq.Delivery(); d == nil || d.Tag>>32 != 1 {
		t.Fatalf("posted receive completed with %+v, want rank 1's message", d)
	}
	if posted, unexpected := queueLens(r); posted != 0 || unexpected != 0 {
		t.Fatalf("rank 0 ended with %d receives posted and %d messages unmatched", posted, unexpected)
	}
}

func TestDeadlockDetected(t *testing.T) {
	c := testComm(t, 2, Config{}, 5)
	err := runComm(c, func(r *Rank) {
		if r.Rank() == 0 {
			r.Recv(1) // rank 1 never sends
		}
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestSelfSendRecv(t *testing.T) {
	c := testComm(t, 2, Config{}, 6)
	err := runComm(c, func(r *Rank) {
		if r.Rank() == 0 {
			req := r.Isend(0, 1024, core.PointToPoint)
			d := r.Recv(0)
			r.Wait(req)
			if d == nil {
				// Same-node messages still produce a delivery record.
				r.fail(errSelfDelivery)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Rank(0).Err() != nil {
		t.Fatal(c.Rank(0).Err())
	}
}

var errSelfDelivery = &selfDeliveryError{}

type selfDeliveryError struct{}

func (*selfDeliveryError) Error() string { return "self delivery record missing" }

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8} {
		c := testComm(t, n, Config{}, 7)
		after := make([]sim.Time, n)
		slowest := 0
		err := runComm(c, func(r *Rank) {
			// One rank is late; everyone must wait for it.
			if r.Rank() == slowest {
				r.Compute(50000)
			}
			r.Barrier()
			after[r.Rank()] = r.Now()
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if after[i] < 50000 {
				t.Fatalf("n=%d: rank %d left the barrier at %d, before the slow rank entered", n, i, after[i])
			}
		}
	}
}

func TestCollectivesComplete(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6, 8} {
		n := n
		c := testComm(t, n, Config{}, int64(10+n))
		err := runComm(c, func(r *Rank) {
			r.Broadcast(0, 2048)
			r.Allreduce(1024)
			r.Alltoall(512)
			r.Barrier()
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if e := c.Rank(i).Err(); e != nil {
				t.Fatalf("n=%d rank %d: %v", n, i, e)
			}
		}
		if c.Size() != n {
			t.Fatalf("Size = %d, want %d", c.Size(), n)
		}
	}
}

func TestBroadcastReachesEveryoneBeforeReturn(t *testing.T) {
	const n = 6
	c := testComm(t, n, Config{}, 11)
	times := make([]sim.Time, n)
	err := runComm(c, func(r *Rank) {
		r.Broadcast(2, 8192)
		times[r.Rank()] = r.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ti := range times {
		if i == 2 {
			continue
		}
		if ti <= 0 {
			t.Fatalf("rank %d finished broadcast at time %d", i, ti)
		}
	}
}

func TestDefaultRoutingUsesIMBForAlltoall(t *testing.T) {
	p := DefaultRouting()
	mode, overhead, observe := p.SelectMode(1024, core.Alltoall)
	if mode != routing.IncreasinglyMinimalBias || overhead != 0 || observe != nil {
		t.Fatalf("alltoall default = %v, overhead=%d", mode, overhead)
	}
	mode, _, _ = p.SelectMode(1024, core.PointToPoint)
	if mode != routing.Adaptive {
		t.Fatalf("p2p default = %v, want Adaptive", mode)
	}
}

func TestStaticRoutingProvider(t *testing.T) {
	p := StaticRouting{Mode: routing.AdaptiveHighBias}
	mode, _, _ := p.SelectMode(1, core.Alltoall)
	if mode != routing.AdaptiveHighBias {
		t.Fatalf("mode = %v", mode)
	}
}

func TestAppAwareRoutingIntegration(t *testing.T) {
	selectors := make(map[int]*core.Selector)
	cfg := Config{
		Routing: func(rank int) RoutingProvider {
			selCfg := core.DefaultConfig()
			selCfg.ThresholdBytes = 0
			s := core.MustNew(selCfg)
			selectors[rank] = s
			return AppAwareRouting{Selector: s}
		},
	}
	c := testComm(t, 4, cfg, 12)
	err := runComm(c, func(r *Rank) {
		for i := 0; i < 5; i++ {
			r.Alltoall(4096)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, s := range selectors {
		st := s.Stats()
		if st.Messages == 0 {
			t.Fatalf("rank %d selector saw no messages", rank)
		}
		if st.Evaluations == 0 {
			t.Fatalf("rank %d selector never evaluated", rank)
		}
		if st.CounterReads == 0 {
			t.Fatalf("rank %d selector never observed counters", rank)
		}
		if st.DefaultBytes+st.BiasBytes != st.Bytes {
			t.Fatalf("rank %d selector byte accounting broken: %+v", rank, st)
		}
	}
}

func TestHostNoiseDelaysOperations(t *testing.T) {
	runWith := func(noise func(int) int64) sim.Time {
		c := testComm(t, 2, Config{HostNoise: noise}, 13)
		var total sim.Time
		err := runComm(c, func(r *Rank) {
			if r.Rank() == 0 {
				start := r.Now()
				for i := 0; i < 5; i++ {
					r.Send(1, 256, core.PointToPoint)
					r.Recv(1)
				}
				total = r.Now() - start
			} else {
				for i := 0; i < 5; i++ {
					r.Recv(0)
					r.Send(0, 256, core.PointToPoint)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	quiet := runWith(nil)
	noisy := runWith(func(int) int64 { return 10000 })
	if noisy <= quiet {
		t.Fatalf("host noise did not slow down the exchange: %d vs %d", noisy, quiet)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() sim.Time {
		c := testComm(t, 6, Config{}, 99)
		err := runComm(c, func(r *Rank) {
			r.Alltoall(2048)
			r.Allreduce(1024)
		})
		if err != nil {
			t.Fatal(err)
		}
		return c.Fabric().Engine().Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs not deterministic: %d vs %d", a, b)
	}
}

func TestRankAccessors(t *testing.T) {
	c := testComm(t, 2, Config{}, 14)
	err := runComm(c, func(r *Rank) {
		if r.Size() != 2 {
			r.fail(errSelfDelivery)
		}
		r.Compute(0)  // no-op
		r.Compute(-5) // no-op
		r.Wait(nil)   // no-op
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Rank(0).Err() != nil || c.Rank(1).Err() != nil {
		t.Fatal("accessor checks failed inside rank program")
	}
}

func TestEmptyAllocationRejected(t *testing.T) {
	tt := topo.MustNew(topo.SmallConfig(2))
	pol := routing.MustNewPolicy(tt, routing.DefaultParams())
	eng := sim.NewEngine(1)
	fab := network.MustNew(eng, tt, pol, network.DefaultConfig())
	if _, err := NewComm(fab, alloc.NewAllocation(tt, nil), Config{}); err == nil {
		t.Fatal("expected error for empty allocation")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewComm did not panic")
		}
	}()
	MustNewComm(fab, alloc.NewAllocation(tt, nil), Config{})
}

func TestMoreRanksThanOneMessageEach(t *testing.T) {
	// A mesh of sends: every rank sends to every other rank; ensures message
	// matching scales beyond a single in-flight message per pair.
	const n = 5
	c := testComm(t, n, Config{}, 15)
	err := runComm(c, func(r *Rank) {
		reqs := make([]*Request, 0, 2*(n-1))
		for p := 0; p < n; p++ {
			if p == r.Rank() {
				continue
			}
			reqs = append(reqs, r.Irecv(p), r.Isend(p, 1024, core.PointToPoint))
		}
		r.WaitAll(reqs...)
	})
	if err != nil {
		t.Fatal(err)
	}

	// On 64 ranks, AlltoallSpread posts 63 receives at once and the root of
	// a linear gather posts 63 in rank order, so the posted queues run deep
	// and arrivals are matched and removed from their middle. Every message
	// must be received, and every queue must end empty.
	const big, size = 64, 1024
	c = testCommOn(t, topo.SmallConfig(4), big, Config{}, 15)
	err = runComm(c, func(r *Rank) {
		r.AlltoallSpread(size)
		if r.Rank() != 0 {
			r.Send(0, size, core.PointToPoint)
			return
		}
		reqs := make([]*Request, 0, big-1)
		for p := 1; p < big; p++ {
			reqs = append(reqs, r.Irecv(p))
		}
		r.WaitAll(reqs...)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < big; i++ {
		r := c.Rank(i)
		if r.Err() != nil {
			t.Fatalf("rank %d: %v", i, r.Err())
		}
		if posted, unexpected := queueLens(r); posted != 0 || unexpected != 0 {
			t.Fatalf("rank %d ended with %d receives posted and %d messages unmatched", i, posted, unexpected)
		}
	}
	if got, want := c.Fabric().PacketsInjected(), uint64(big*(big-1)+big-1)*size/64; got != want {
		t.Fatalf("alltoall and gather injected %d packets, want %d", got, want)
	}
}
