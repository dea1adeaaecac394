package workloads

import (
	"math/rand"

	"dragonfly/internal/core"
	"dragonfly/internal/mpi"
)

// Synthetic traffic patterns beyond the paper's microbenchmarks. They cover
// the classic stress patterns of the interconnect literature — incast,
// permutation shifts, random access, matrix transpose, 2D halos and software
// pipelines — and are used by the ablation experiments and by the scheduler /
// telemetry examples to generate controlled load shapes. Each is built from
// its registry entry (ranks, size) and runs one round per Run.

// incast makes every rank send size bytes to rank 0, the many-to-one
// hot-spot pattern that packet spraying is "feared" for in the paper's
// introduction.
func incast(_ int, size int64) Workload {
	return Func{WorkloadName: "incast", Body: func(r *mpi.Rank) {
		n := r.Size()
		if r.Rank() == 0 {
			reqs := make([]*mpi.Request, 0, n-1)
			for p := 1; p < n; p++ {
				reqs = append(reqs, r.Irecv(p))
			}
			r.WaitAll(reqs...)
		} else {
			r.Send(0, size, core.PointToPoint)
		}
		r.Barrier()
	}}
}

// shift is the permutation pattern: every rank sends size bytes to the rank
// ranks/2+1 positions ahead (mod n). Adversarial shift distances concentrate
// all traffic of a group onto a few global links, the pattern non-minimal
// routing exists to spread.
func shift(ranks int, size int64) Workload {
	distance := ranks/2 + 1
	return Func{WorkloadName: "shift", Body: func(r *mpi.Rank) {
		n := r.Size()
		if n == 1 {
			return
		}
		// A distance that is a multiple of n would send to the rank itself.
		d := distance % n
		if d == 0 {
			d = 1
		}
		recvReq := r.Irecv((r.Rank() - d + n) % n)
		sendReq := r.Isend((r.Rank()+d)%n, size, core.PointToPoint)
		r.Wait(sendReq)
		r.Wait(recvReq)
	}}
}

// randomAccessUpdates is the number of updates each rank of randomaccess
// issues per Run.
const randomAccessUpdates = 16

// randomAccess approximates the GUPS benchmark: every rank sends 16 updates
// of size bytes (8 when size is not positive) to uniformly random peers. It
// is latency bound and produces a uniform-random traffic matrix.
func randomAccess(_ int, size int64) Workload {
	if size <= 0 {
		size = 8
	}
	return Func{WorkloadName: "randomaccess", Body: func(r *mpi.Rank) {
		n := r.Size()
		if n == 1 {
			return
		}
		// Every rank derives each peer's destination stream from the same
		// seeded construction, so it can predict how many updates it will
		// receive from every peer and post the matching receives without a
		// wildcard-receive primitive.
		incomingFrom := make([]int, n)
		myDest := make([]int, randomAccessUpdates)
		for peer := 0; peer < n; peer++ {
			peerRng := rand.New(rand.NewSource(1_000_003 + int64(peer) + 1))
			for u := 0; u < randomAccessUpdates; u++ {
				d := peerRng.Intn(n - 1)
				if d >= peer {
					d++
				}
				if peer == r.Rank() {
					myDest[u] = d
				}
				if d == r.Rank() && peer != r.Rank() {
					incomingFrom[peer]++
				}
			}
		}
		reqs := make([]*mpi.Request, 0, 2*randomAccessUpdates)
		for peer, cnt := range incomingFrom {
			for i := 0; i < cnt; i++ {
				reqs = append(reqs, r.Irecv(peer))
			}
		}
		for _, d := range myDest {
			reqs = append(reqs, r.Isend(d, size, core.PointToPoint))
		}
		r.WaitAll(reqs...)
	}}
}

// transpose is the 2D matrix-transpose pattern of distributed FFTs: ranks are
// arranged in a logical px x py grid and each rank exchanges a size-byte
// block with its transposed counterpart.
func transpose(_ int, size int64) Workload {
	return Func{WorkloadName: "transpose", Body: func(r *mpi.Rank) {
		n := r.Size()
		if n == 1 {
			return
		}
		px, py := Factor2D(n)
		x := r.Rank() % px
		y := r.Rank() / px
		// The transposed coordinate may fall outside a non-square grid; clamp
		// to a plain pairwise partner in that case.
		tx, ty := y, x
		partner := r.Rank()
		if tx < px && ty < py {
			partner = tx + ty*px
		}
		if partner == r.Rank() {
			r.Barrier()
			return
		}
		recvReq := r.Irecv(partner)
		sendReq := r.Isend(partner, size, core.PointToPoint)
		r.Wait(sendReq)
		r.Wait(recvReq)
		r.Barrier()
	}}
}

// halo2d is a five-point 2D stencil exchange (the 2D cousin of halo3d),
// common in structured-grid codes: size is the per-neighbour message.
func halo2d(_ int, size int64) Workload {
	return Func{WorkloadName: "halo2d", Body: func(r *mpi.Rank) {
		px, py := Factor2D(r.Size())
		x := r.Rank() % px
		y := r.Rank() / px
		var peers []int
		add := func(nx, ny int) {
			if nx < 0 || nx >= px || ny < 0 || ny >= py {
				return
			}
			peers = append(peers, nx+ny*px)
		}
		add(x-1, y)
		add(x+1, y)
		add(x, y-1)
		add(x, y+1)
		haloExchange(r, peers, size)
	}}
}

// pipelineStages is the number of blocks pipeline pushes through per Run.
const pipelineStages = 4

// pipeline is a software-pipeline pattern: rank k repeatedly receives a
// size-byte block from rank k-1 and forwards it to rank k+1.
func pipeline(_ int, size int64) Workload {
	return Func{WorkloadName: "pipeline", Body: func(r *mpi.Rank) {
		n := r.Size()
		if n == 1 {
			return
		}
		for s := 0; s < pipelineStages; s++ {
			if r.Rank() > 0 {
				r.Recv(r.Rank() - 1)
			}
			if r.Rank() < n-1 {
				r.Send(r.Rank()+1, size, core.PointToPoint)
			}
		}
	}}
}

// tunedCollectivesSmallBytes is the payload of tuned-collectives' small
// control collectives.
const tunedCollectivesSmallBytes = 64

// tunedCollectives exercises the size-tuned collective algorithms back to
// back, reproducing the phase structure of an application that mixes small
// control collectives with large data collectives of size bytes (64 KiB
// when size is not positive).
func tunedCollectives(_ int, size int64) Workload {
	if size <= 0 {
		size = 64 << 10
	}
	return Func{WorkloadName: "tuned-collectives", Body: func(r *mpi.Rank) {
		r.TunedAllreduce(tunedCollectivesSmallBytes)
		r.TunedBroadcast(0, size)
		r.TunedAlltoall(tunedCollectivesSmallBytes)
		r.TunedAllreduce(size)
	}}
}
