package mpi

import (
	"dragonfly/internal/core"
)

// Collective algorithms. These are the textbook algorithms Cray MPICH uses for
// mid-sized messages and are sufficient to generate the traffic patterns the
// paper's microbenchmarks exercise: log-round dissemination (barrier),
// binomial trees (broadcast, reduce) recursive doubling (allreduce) and
// pairwise exchange (alltoall).

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

// Reduce combines size bytes from every rank onto root using a binomial tree
// (data flows leaf-to-root; the reduction operation itself is not simulated).
func (r *Rank) Reduce(root int, size int64) {
	r.collective(opReduce, opNone, root, size, core.PointToPoint)
}

// Allreduce performs a sum-style allreduce of size bytes (the full vector is
// exchanged at every step, as in recursive doubling). For non-power-of-two
// communicators it falls back to Reduce-to-0 followed by Broadcast.
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

// Allgather gathers size bytes from every rank on every rank using the ring
// algorithm (n-1 steps, each forwarding the previously received block).
func (r *Rank) Allgather(size int64) {
	r.collective(opAllgather, opNone, 0, size, core.PointToPoint)
}

// Gather collects size bytes from every rank onto root. Leaves send their
// block directly to the root; the simple linear algorithm matches what MPI
// implementations use for small and mid-sized gathers.
func (r *Rank) Gather(root int, size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	if r.rank != root {
		r.collective(opGatherLeaf, opNone, root, size, core.PointToPoint)
		return
	}
	r.hostNoise()
	reqs := make([]*Request, 0, n-1)
	for p := 0; p < n; p++ {
		if p != root {
			reqs = append(reqs, r.Irecv(p))
		}
	}
	r.WaitAll(reqs...)
}

// Scatter distributes one block of size bytes from root to every other rank
// (linear algorithm).
func (r *Rank) Scatter(root int, size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	if r.rank != root {
		r.collective(opScatterLeaf, opNone, root, size, core.PointToPoint)
		return
	}
	r.hostNoise()
	reqs := make([]*Request, 0, n-1)
	for p := 0; p < n; p++ {
		if p != root {
			reqs = append(reqs, r.Isend(p, size, core.PointToPoint))
		}
	}
	r.WaitAll(reqs...)
}

// ReduceScatterBlock reduces and scatters equally sized blocks using pairwise
// exchange; each rank ends up with one reduced block of size bytes.
func (r *Rank) ReduceScatterBlock(size int64) {
	r.collective(opReduceScatterBlock, opNone, 0, size, core.PointToPoint)
}
