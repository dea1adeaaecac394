package mpi

import (
	"dragonfly/internal/core"
)

// Additional collective algorithms. Production MPI libraries (including Cray
// MPICH on Aries) switch between several algorithms per collective depending
// on the message size and communicator size; the traffic pattern each
// algorithm generates differs substantially (tree vs. ring vs. pairwise), and
// with it the sensitivity to the routing mode. These implementations let the
// experiments and the ablation benches exercise the application-aware selector
// under every pattern a real MPI stack would produce.
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

// GatherBinomial collects size bytes from every rank onto root using a
// binomial tree: interior ranks aggregate the blocks of their subtree before
// forwarding, so the message grows towards the root.
func (r *Rank) GatherBinomial(root int, size int64) {
	r.collective(opGatherBinomial, opNone, root, size, core.PointToPoint)
}

// ScatterBinomial distributes one block of size bytes from root to every rank
// using a binomial tree: the root sends half of all blocks to its first child,
// which forwards half of that half, and so on.
func (r *Rank) ScatterBinomial(root int, size int64) {
	r.collective(opScatterBinomial, opNone, root, size, core.PointToPoint)
}

// AllgatherRecursiveDoubling gathers size bytes from every rank on every rank
// using recursive doubling: log2(n) rounds in which the exchanged block
// doubles. It requires a power-of-two communicator; other sizes fall back to
// the ring algorithm in Allgather.
func (r *Rank) AllgatherRecursiveDoubling(size int64) {
	if n := r.Size(); n&(n-1) != 0 {
		r.Allgather(size)
		return
	}
	r.collective(opAllgatherRecursiveDoubling, opNone, 0, size, core.PointToPoint)
}

// AllgatherBruck gathers size bytes from every rank on every rank using the
// Bruck algorithm (log rounds, doubling block sizes, ranks at distance 2^k).
// Unlike recursive doubling it works for any communicator size.
func (r *Rank) AllgatherBruck(size int64) {
	r.collective(opAllgatherBruck, opNone, 0, size, core.PointToPoint)
}

// ReduceScatterHalving reduces and scatters equally sized blocks of size bytes
// each using recursive halving (the reduce-scatter phase of Rabenseifner's
// allreduce). Non-power-of-two communicators fall back to the pairwise
// algorithm in ReduceScatterBlock.
func (r *Rank) ReduceScatterHalving(size int64) {
	if n := r.Size(); n&(n-1) != 0 {
		r.ReduceScatterBlock(size)
		return
	}
	r.collective(opReduceScatterHalving, opNone, 0, size, core.PointToPoint)
}

// Scan performs an inclusive prefix reduction of size bytes with the linear
// pipeline algorithm: rank k receives the partial result from rank k-1 and
// forwards its own partial result to rank k+1. The pattern is a strict chain,
// the opposite extreme of alltoall's full bisection pressure.
func (r *Rank) Scan(size int64) {
	r.collective(opScan, opNone, 0, size, core.PointToPoint)
}
