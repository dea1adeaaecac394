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
	n := r.Size()
	if n == 1 {
		return
	}
	r.hostNoise()
	for dist := 1; dist < n; dist *= 2 {
		to := (r.rank + dist) % n
		from := (r.rank - dist + n) % n
		r.exchange(&r.sendReq, to, controlMessageBytes, core.PointToPoint, &r.recvReq, from)
	}
}

// Broadcast sends size bytes from root to every other rank using a binomial
// tree rooted at root.
func (r *Rank) Broadcast(root int, size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	r.hostNoise()
	// Re-number ranks so the root is virtual rank 0.
	vrank := (r.rank - root + n) % n
	// Receive from the parent (unless root).
	if vrank != 0 {
		mask := 1
		for mask < n {
			if vrank&mask != 0 {
				parent := ((vrank - mask) + root) % n
				r.Recv(parent)
				break
			}
			mask <<= 1
		}
	}
	// Forward to children.
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			break
		}
		mask <<= 1
	}
	for child := mask >> 1; child >= 1; child >>= 1 {
		if vrank&child == 0 && vrank+child < n {
			dest := ((vrank + child) + root) % n
			r.Send(dest, size, core.PointToPoint)
		}
	}
}

// Reduce combines size bytes from every rank onto root using a binomial tree
// (data flows leaf-to-root; the reduction operation itself is not simulated).
func (r *Rank) Reduce(root int, size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	r.hostNoise()
	vrank := (r.rank - root + n) % n
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % n
			r.Send(parent, size, core.PointToPoint)
			return
		}
		partner := vrank | mask
		if partner < n {
			r.Recv((partner + root) % n)
		}
		mask <<= 1
	}
}

// Allreduce performs a sum-style allreduce of size bytes (the full vector is
// exchanged at every step, as in recursive doubling). For non-power-of-two
// communicators it falls back to Reduce-to-0 followed by Broadcast.
func (r *Rank) Allreduce(size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	if n&(n-1) != 0 {
		r.Reduce(0, size)
		r.Broadcast(0, size)
		return
	}
	r.hostNoise()
	for mask := 1; mask < n; mask <<= 1 {
		partner := r.rank ^ mask
		r.SendRecv(partner, size, partner, core.PointToPoint)
	}
}

// Alltoall exchanges size bytes between every pair of ranks using the pairwise
// exchange algorithm (n-1 rounds). The traffic is marked core.Alltoall so that
// routing providers can apply the alltoall-specific default (Increasingly
// Minimal Bias) or the selector's alltoall branch.
func (r *Rank) Alltoall(size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	r.hostNoise()
	for step := 1; step < n; step++ {
		var partner int
		if n&(n-1) == 0 {
			partner = r.rank ^ step
		} else {
			partner = (r.rank + step) % n
		}
		sendTo := partner
		recvFrom := partner
		if n&(n-1) != 0 {
			sendTo = (r.rank + step) % n
			recvFrom = (r.rank - step + n) % n
		}
		r.exchange(&r.sendReq, sendTo, size, core.Alltoall, &r.recvReq, recvFrom)
	}
}

// Allgather gathers size bytes from every rank on every rank using the ring
// algorithm (n-1 steps, each forwarding the previously received block).
func (r *Rank) Allgather(size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	r.hostNoise()
	next := (r.rank + 1) % n
	prev := (r.rank - 1 + n) % n
	for step := 0; step < n-1; step++ {
		r.exchange(&r.sendReq, next, size, core.PointToPoint, &r.recvReq, prev)
	}
}

// Gather collects size bytes from every rank onto root. Leaves send their
// block directly to the root; the simple linear algorithm matches what MPI
// implementations use for small and mid-sized gathers.
func (r *Rank) Gather(root int, size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	r.hostNoise()
	if r.rank == root {
		reqs := make([]*Request, 0, n-1)
		for p := 0; p < n; p++ {
			if p == root {
				continue
			}
			reqs = append(reqs, r.Irecv(p))
		}
		r.WaitAll(reqs...)
		return
	}
	r.Send(root, size, core.PointToPoint)
}

// Scatter distributes one block of size bytes from root to every other rank
// (linear algorithm).
func (r *Rank) Scatter(root int, size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	r.hostNoise()
	if r.rank == root {
		reqs := make([]*Request, 0, n-1)
		for p := 0; p < n; p++ {
			if p == root {
				continue
			}
			reqs = append(reqs, r.Isend(p, size, core.PointToPoint))
		}
		r.WaitAll(reqs...)
		return
	}
	r.Recv(root)
}

// ReduceScatterBlock reduces and scatters equally sized blocks using pairwise
// exchange; each rank ends up with one reduced block of size bytes.
func (r *Rank) ReduceScatterBlock(size int64) {
	n := r.Size()
	if n == 1 {
		return
	}
	r.hostNoise()
	for step := 1; step < n; step++ {
		partner := (r.rank + step) % n
		from := (r.rank - step + n) % n
		r.exchange(&r.sendReq, partner, size, core.PointToPoint, &r.recvReq, from)
	}
}
