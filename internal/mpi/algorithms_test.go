package mpi

import (
	"testing"

	"dragonfly/internal/counters"
)

// runCollective executes body on a fresh communicator of n ranks and returns
// the summed NIC counter deltas of the job.
func runCollective(t *testing.T, n int, seed int64, body func(*Rank)) counters.NIC {
	t.Helper()
	c := testComm(t, n, Config{}, seed)
	before := jobNICCounters(c)
	if err := runComm(c, body); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := c.Rank(i).Err(); err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	return jobNICCounters(c).Sub(before)
}

// jobNICCounters sums the NIC counters over all allocated nodes.
func jobNICCounters(c *Comm) counters.NIC {
	var total counters.NIC
	for i := 0; i < c.Size(); i++ {
		total.Add(c.Fabric().NodeCounters(c.Allocation().Node(i)))
	}
	return total
}

func TestAllreduceRingCompletes(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8} {
		delta := runCollective(t, n, 11, func(r *Rank) { r.AllreduceRing(4096) })
		if delta.RequestPackets == 0 {
			t.Fatalf("n=%d: ring allreduce generated no traffic", n)
		}
	}
}

func TestAllreduceRingSingleRankIsNoop(t *testing.T) {
	delta := runCollective(t, 1, 12, func(r *Rank) { r.AllreduceRing(4096) })
	if delta.RequestPackets != 0 {
		t.Fatalf("single-rank ring allreduce produced traffic: %+v", delta)
	}
}

func TestAllreduceRabenseifnerCompletes(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		delta := runCollective(t, n, 13, func(r *Rank) { r.AllreduceRabenseifner(8192) })
		if delta.RequestPackets == 0 {
			t.Fatalf("n=%d: rabenseifner allreduce generated no traffic", n)
		}
	}
}

func TestAllreduceRabenseifnerNonPowerOfTwoFallsBack(t *testing.T) {
	delta := runCollective(t, 6, 14, func(r *Rank) { r.AllreduceRabenseifner(8192) })
	if delta.RequestPackets == 0 {
		t.Fatal("non-power-of-two rabenseifner (ring fallback) generated no traffic")
	}
}

func TestAllreduceRingMovesLessDataThanRecursiveDoubling(t *testing.T) {
	// For large vectors the ring algorithm is bandwidth optimal: each rank
	// sends 2*(n-1)*size/n bytes, whereas recursive doubling sends
	// log2(n)*size bytes. With n=8 the ring should inject fewer flits.
	const size = 64 << 10
	ring := runCollective(t, 8, 15, func(r *Rank) { r.AllreduceRing(size) })
	doubling := runCollective(t, 8, 15, func(r *Rank) { r.Allreduce(size) })
	if ring.RequestFlits >= doubling.RequestFlits {
		t.Fatalf("ring allreduce injected %d flits, recursive doubling %d; expected ring < doubling",
			ring.RequestFlits, doubling.RequestFlits)
	}
}

func TestAlltoallBruckCompletes(t *testing.T) {
	for _, n := range []int{2, 4, 5, 8} {
		delta := runCollective(t, n, 16, func(r *Rank) { r.AlltoallBruck(256) })
		if delta.RequestPackets == 0 {
			t.Fatalf("n=%d: bruck alltoall generated no traffic", n)
		}
	}
}

func TestAlltoallSpreadCompletes(t *testing.T) {
	for _, n := range []int{2, 4, 7} {
		delta := runCollective(t, n, 17, func(r *Rank) { r.AlltoallSpread(512) })
		if delta.RequestPackets == 0 {
			t.Fatalf("n=%d: spread alltoall generated no traffic", n)
		}
	}
}

func TestAlltoallBruckTradesStartupsForBandwidth(t *testing.T) {
	// Bruck uses ceil(log2(n)) rounds instead of n-1, so each rank issues
	// fewer sends (fewer message startups); the price is that blocks are
	// forwarded multiple times, so the total injected flits are at least as
	// many as with pairwise exchange.
	const n, size = 8, 64
	countSends := func(body func(*Rank)) (sends uint64, delta counters.NIC) {
		c := testComm(t, n, Config{}, 18)
		before := jobNICCounters(c)
		if err := runComm(c, body); err != nil {
			t.Fatalf("Run: %v", err)
		}
		for i := 0; i < n; i++ {
			sends += c.Rank(i).sendSeq
		}
		return sends, jobNICCounters(c).Sub(before)
	}
	bruckSends, bruck := countSends(func(r *Rank) { r.AlltoallBruck(size) })
	pairSends, pairwise := countSends(func(r *Rank) { r.Alltoall(size) })
	if bruckSends >= pairSends {
		t.Fatalf("bruck issued %d sends, pairwise %d; expected bruck < pairwise", bruckSends, pairSends)
	}
	if bruck.RequestFlits < pairwise.RequestFlits {
		t.Fatalf("bruck injected %d flits, pairwise %d; expected bruck >= pairwise", bruck.RequestFlits, pairwise.RequestFlits)
	}
}

func TestBroadcastScatterAllgatherCompletes(t *testing.T) {
	for _, n := range []int{2, 4, 6} {
		delta := runCollective(t, n, 21, func(r *Rank) { r.BroadcastScatterAllgather(0, 32<<10) })
		if delta.RequestPackets == 0 {
			t.Fatalf("n=%d: scatter-allgather broadcast generated no traffic", n)
		}
	}
}

func TestCollectivesOnSingleRankAreNoops(t *testing.T) {
	delta := runCollective(t, 1, 26, func(r *Rank) {
		r.AllreduceRing(1024)
		r.AllreduceRabenseifner(1024)
		r.AlltoallBruck(1024)
		r.AlltoallSpread(1024)
		r.BroadcastScatterAllgather(0, 1024)
	})
	if delta.RequestPackets != 0 {
		t.Fatalf("single-rank collectives produced traffic: %+v", delta)
	}
}

func TestTinyMessageCollectivesComplete(t *testing.T) {
	// Degenerate sizes (0 and 1 byte) must not hang or divide by zero.
	for _, size := range []int64{0, 1} {
		size := size
		delta := runCollective(t, 4, 27, func(r *Rank) {
			r.AllreduceRing(size)
			r.AllreduceRabenseifner(size)
			r.AlltoallBruck(size)
			r.BroadcastScatterAllgather(0, size)
		})
		if delta.RequestPackets == 0 {
			t.Fatalf("size=%d: collectives generated no traffic", size)
		}
	}
}
