package mpi

import (
	"dragonfly/internal/core"
)

// Additional collective algorithms. Production MPI libraries (including Cray
// MPICH on Aries) switch between several algorithms per collective depending
// on the message size and communicator size; the traffic pattern each
// algorithm generates differs substantially (tree vs. ring vs. pairwise), and
// with it the sensitivity to the routing mode. These implementations let the
// experiments (-exp collalgos) and the tuned collectives exercise the
// application-aware selector under the broadcast, allreduce and alltoall
// patterns a real MPI stack produces.
//
// As with the basic algorithms in collectives.go, only the traffic is
// simulated; the arithmetic of reductions is not.

// BroadcastScatterAllgather broadcasts size bytes from root using the
// van de Geijn algorithm: a binomial scatter of size/n blocks followed by a
// ring allgather. MPI implementations prefer it over the binomial tree for
// large messages because every rank both sends and receives roughly
// 2*size*(n-1)/n bytes instead of the tree's size*log(n) on the root path.
func (r *Rank) BroadcastScatterAllgather(root int, size int64) {
	block := max(1, size/int64(r.Size()))
	r.collective(opScatterBinomial, opAllgather, root, block, core.PointToPoint)
}

// AllreduceRing performs an allreduce of size bytes with the ring algorithm:
// a ring reduce-scatter (n-1 steps of size/n-byte blocks) followed by a ring
// allgather (another n-1 steps). It is the bandwidth-optimal algorithm for
// large vectors and generates strictly nearest-rank traffic.
func (r *Rank) AllreduceRing(size int64) {
	r.collective(opAllreduceRing, opNone, 0, size, core.PointToPoint)
}

// AllreduceRabenseifner performs an allreduce of size bytes with
// Rabenseifner's algorithm: recursive-halving reduce-scatter followed by
// recursive-doubling allgather. It requires a power-of-two communicator; for
// other sizes it falls back to the ring algorithm. Compared to recursive
// doubling it halves the exchanged volume at every reduce-scatter step, which
// changes the message-size distribution the routing selector observes.
func (r *Rank) AllreduceRabenseifner(size int64) {
	if n := r.Size(); n&(n-1) != 0 {
		r.AllreduceRing(size)
		return
	}
	r.collective(opAllreduceRabenseifner, opNone, 0, size, core.PointToPoint)
}

// AlltoallBruck performs an alltoall of size bytes per rank pair using the
// Bruck algorithm: ceil(log2(n)) rounds in which each rank forwards roughly
// half of all blocks to a rank at distance 2^k. MPI implementations use it for
// small messages because it trades bandwidth (each block moves up to log(n)
// times) for a logarithmic number of message startups.
func (r *Rank) AlltoallBruck(size int64) {
	r.collective(opAlltoallBruck, opNone, 0, size, core.Alltoall)
}

// AlltoallSpread performs an alltoall of size bytes per rank pair by posting
// every send and receive at once (the "spread"/non-blocking-linear algorithm).
// It produces the highest instantaneous injection pressure of all alltoall
// algorithms and is the pattern most sensitive to the routing mode.
func (r *Rank) AlltoallSpread(size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	r.hostNoise()
	reqs := make([]*Request, 0, 2*(n-1))
	for step := 1; step < n; step++ {
		peer := (r.rank + step) % n
		reqs = append(reqs, r.Irecv((r.rank-step+n)%n))
		reqs = append(reqs, r.Isend(peer, size, core.Alltoall))
	}
	r.WaitAll(reqs...)
}
