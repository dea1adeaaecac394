package mpi

import (
	"testing"

	"dragonfly/internal/sim"
)

func TestTunedCollectivesComplete(t *testing.T) {
	for _, size := range []int64{64, 8 << 10, 128 << 10} {
		size := size
		delta := runCollective(t, 4, 31, func(r *Rank) {
			r.TunedBroadcast(0, size)
			r.TunedAllreduce(size)
			r.TunedAlltoall(size)
		})
		if delta.RequestPackets == 0 {
			t.Fatalf("size=%d: tuned collectives generated no traffic", size)
		}
	}
}

// TestTunedDispatch pins the algorithm each Tuned* call runs at sizes on both
// sides of every threshold, on a power-of-two and a non-power-of-two
// communicator: the tuned call and the algorithm it must pick, each run on a
// fresh communicator, finish at the same simulated time and inject the same
// number of packets.
func TestTunedDispatch(t *testing.T) {
	cases := []struct {
		name  string
		size  int64
		tuned func(r *Rank, size int64)
		want  func(r *Rank, size int64)
	}{
		{"allreduce", 2 << 10, (*Rank).TunedAllreduce, (*Rank).Allreduce},
		{"allreduce", 2<<10 + 1, (*Rank).TunedAllreduce, (*Rank).AllreduceRabenseifner},
		{"allreduce", 256<<10 + 1, (*Rank).TunedAllreduce, (*Rank).AllreduceRing},
		{"alltoall", 1 << 10, (*Rank).TunedAlltoall, (*Rank).AlltoallBruck},
		{"alltoall", 1<<10 + 1, (*Rank).TunedAlltoall, (*Rank).AlltoallSpread},
		{"alltoall", 32<<10 + 1, (*Rank).TunedAlltoall, (*Rank).Alltoall},
		{"broadcast", 64 << 10, func(r *Rank, s int64) { r.TunedBroadcast(0, s) }, func(r *Rank, s int64) { r.Broadcast(0, s) }},
		{"broadcast", 64<<10 + 1, func(r *Rank, s int64) { r.TunedBroadcast(0, s) }, func(r *Rank, s int64) { r.BroadcastScatterAllgather(0, s) }},
	}
	run := func(n int, size int64, body func(*Rank, int64)) (sim.Time, uint64) {
		c := testComm(t, n, Config{}, 5)
		finished := finishTime(c)
		if err := runComm(c, func(r *Rank) { body(r, size) }); err != nil {
			t.Fatalf("Run: %v", err)
		}
		for i := 0; i < n; i++ {
			if err := c.Rank(i).Err(); err != nil {
				t.Fatalf("rank %d: %v", i, err)
			}
		}
		return *finished, c.Fabric().PacketsInjected()
	}
	for _, n := range []int{8, 6} {
		for _, c := range cases {
			gotT, gotP := run(n, c.size, c.tuned)
			wantT, wantP := run(n, c.size, c.want)
			if gotT != wantT || gotP != wantP {
				t.Errorf("%s of %d bytes on %d ranks: tuned finished at %d with %d packets, its algorithm at %d with %d",
					c.name, c.size, n, gotT, gotP, wantT, wantP)
			}
		}
	}
}
