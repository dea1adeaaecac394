package mpi

// The size thresholds of the tuned collectives, in bytes of per-rank payload,
// comparable to the defaults of mainstream MPI implementations: small
// collectives favour latency-optimal log-round algorithms, large ones
// bandwidth-optimal rings, as production MPI libraries switch by size.
const (
	// broadcastTreeMaxBytes is the largest broadcast routed through the
	// binomial tree; larger broadcasts use scatter + allgather.
	broadcastTreeMaxBytes = 64 << 10
	// allreduceDoublingMaxBytes is the largest allreduce using recursive
	// doubling; up to allreduceRabenseifnerMaxBytes Rabenseifner's algorithm
	// is used, and above it the ring.
	allreduceDoublingMaxBytes     = 2 << 10
	allreduceRabenseifnerMaxBytes = 256 << 10
	// alltoallBruckMaxBytes is the largest alltoall using the Bruck
	// algorithm; up to alltoallSpreadMaxBytes the non-blocking spread is
	// used, and above it pairwise exchange.
	alltoallBruckMaxBytes  = 1 << 10
	alltoallSpreadMaxBytes = 32 << 10
)

// TunedBroadcast broadcasts size bytes from root with the algorithm the size
// thresholds select.
func (r *Rank) TunedBroadcast(root int, size int64) {
	if size <= broadcastTreeMaxBytes {
		r.Broadcast(root, size)
		return
	}
	r.BroadcastScatterAllgather(root, size)
}

// TunedAllreduce reduces size bytes with the algorithm the size thresholds
// select.
func (r *Rank) TunedAllreduce(size int64) {
	switch {
	case size <= allreduceDoublingMaxBytes:
		r.Allreduce(size)
	case size <= allreduceRabenseifnerMaxBytes:
		r.AllreduceRabenseifner(size)
	default:
		r.AllreduceRing(size)
	}
}

// TunedAlltoall exchanges size bytes per rank pair with the algorithm the size
// thresholds select.
func (r *Rank) TunedAlltoall(size int64) {
	switch {
	case size <= alltoallBruckMaxBytes:
		r.AlltoallBruck(size)
	case size <= alltoallSpreadMaxBytes:
		r.AlltoallSpread(size)
	default:
		r.Alltoall(size)
	}
}
