package mpi

import (
	"dragonfly/internal/core"
)

// Collective algorithms. These are the textbook algorithms Cray MPICH uses for
// mid-sized messages and are sufficient to generate the traffic patterns the
// paper's microbenchmarks exercise: log-round dissemination (barrier),
// binomial trees (broadcast, and the reduce of Allreduce), recursive doubling
// (allreduce) and pairwise exchange (alltoall).

// controlMessageBytes is the payload of pure synchronization messages.
const controlMessageBytes = 8

// Barrier blocks until every rank has entered the barrier. It uses the
// dissemination algorithm: ceil(log2(n)) rounds of small messages.
func (r *Rank) Barrier() {
	r.collective(opBarrier, opNone, 0, controlMessageBytes, core.PointToPoint)
}

// Broadcast sends size bytes from root to every other rank using a binomial
// tree rooted at root.
func (r *Rank) Broadcast(root int, size int64) {
	r.collective(opBroadcast, opNone, root, size, core.PointToPoint)
}

// Allreduce performs a sum-style allreduce of size bytes (the full vector is
// exchanged at every step, as in recursive doubling). For non-power-of-two
// communicators it falls back to a binomial-tree reduce onto rank 0 (data
// flows leaf-to-root; the reduction itself is not simulated) followed by
// Broadcast.
func (r *Rank) Allreduce(size int64) {
	if n := r.Size(); n&(n-1) != 0 {
		r.collective(opReduce, opBroadcast, 0, size, core.PointToPoint)
		return
	}
	r.collective(opAllreduce, opNone, 0, size, core.PointToPoint)
}

// Alltoall exchanges size bytes between every pair of ranks using the pairwise
// exchange algorithm (n-1 rounds). The traffic is marked core.Alltoall so that
// routing providers can apply the alltoall-specific default (Increasingly
// Minimal Bias) or the selector's alltoall branch.
func (r *Rank) Alltoall(size int64) {
	r.collective(opAlltoall, opNone, 0, size, core.Alltoall)
}
