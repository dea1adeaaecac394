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
// telemetry examples to generate controlled load shapes.

// Incast makes every rank send MessageBytes to a single victim rank, the
// many-to-one hot-spot pattern that packet spraying is "feared" for in the
// paper's introduction.
type Incast struct {
	// Victim is the receiving rank.
	Victim int
	// MessageBytes is the payload each sender contributes.
	MessageBytes int64
	// Iterations is the number of incast rounds per Run.
	Iterations int
}

// Name implements Workload.
func (w *Incast) Name() string { return "incast" }

// Run implements Workload.
func (w *Incast) Run(r *mpi.Rank) {
	iters := w.Iterations
	if iters <= 0 {
		iters = 1
	}
	n := r.Size()
	victim := w.Victim
	if victim < 0 || victim >= n {
		victim = 0
	}
	for i := 0; i < iters; i++ {
		if r.Rank() == victim {
			reqs := make([]*mpi.Request, 0, n-1)
			for p := 0; p < n; p++ {
				if p == victim {
					continue
				}
				reqs = append(reqs, r.Irecv(p))
			}
			r.WaitAll(reqs...)
		} else {
			r.Send(victim, w.MessageBytes, core.PointToPoint)
		}
		r.Barrier()
	}
}

// Shift is the permutation pattern: every rank sends MessageBytes to the rank
// Distance positions ahead (mod n). Adversarial shift distances concentrate
// all traffic of a group onto a few global links, the pattern non-minimal
// routing exists to spread.
type Shift struct {
	// Distance is the rank offset of the destination.
	Distance int
	// MessageBytes is the per-message payload.
	MessageBytes int64
	// Iterations is the number of exchange rounds per Run.
	Iterations int
}

// Name implements Workload.
func (w *Shift) Name() string { return "shift" }

// Run implements Workload.
func (w *Shift) Run(r *mpi.Rank) {
	iters := w.Iterations
	if iters <= 0 {
		iters = 1
	}
	n := r.Size()
	if n == 1 {
		return
	}
	d := w.Distance % n
	if d <= 0 {
		d += n
		if d == n {
			d = 1
		}
	}
	to := (r.Rank() + d) % n
	from := (r.Rank() - d + n) % n
	for i := 0; i < iters; i++ {
		recvReq := r.Irecv(from)
		sendReq := r.Isend(to, w.MessageBytes, core.PointToPoint)
		r.Wait(sendReq)
		r.Wait(recvReq)
	}
}

// RandomAccess approximates the GUPS benchmark: every rank sends many small
// updates to uniformly random peers. It is latency bound and produces a
// uniform-random traffic matrix.
type RandomAccess struct {
	// UpdateBytes is the size of one update message.
	UpdateBytes int64
	// UpdatesPerRank is the number of updates each rank issues per Run.
	UpdatesPerRank int
	// Seed seeds the per-run destination stream (each rank derives its own).
	Seed int64
}

// Name implements Workload.
func (w *RandomAccess) Name() string { return "randomaccess" }

// Run implements Workload.
func (w *RandomAccess) Run(r *mpi.Rank) {
	n := r.Size()
	if n == 1 {
		return
	}
	updates := w.UpdatesPerRank
	if updates <= 0 {
		updates = 16
	}
	bytes := w.UpdateBytes
	if bytes <= 0 {
		bytes = 8
	}
	// Every rank derives each peer's destination stream from the same seeded
	// construction, so it can predict how many updates it will receive from
	// every peer and post the matching receives without a wildcard-receive
	// primitive.
	incomingFrom := make([]int, n)
	myDest := make([]int, updates)
	for peer := 0; peer < n; peer++ {
		peerRng := rand.New(rand.NewSource(w.Seed*1_000_003 + int64(peer) + 1))
		for u := 0; u < updates; u++ {
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
	reqs := make([]*mpi.Request, 0, 2*updates)
	for peer, cnt := range incomingFrom {
		for i := 0; i < cnt; i++ {
			reqs = append(reqs, r.Irecv(peer))
		}
	}
	for _, d := range myDest {
		reqs = append(reqs, r.Isend(d, bytes, core.PointToPoint))
	}
	r.WaitAll(reqs...)
}

// Transpose is the 2D matrix-transpose pattern of distributed FFTs: ranks are
// arranged in a logical px x py grid and each rank exchanges a block with its
// transposed counterpart.
type Transpose struct {
	// BlockBytes is the per-pair block size.
	BlockBytes int64
	// Iterations is the number of transpose rounds per Run.
	Iterations int
}

// Name implements Workload.
func (w *Transpose) Name() string { return "transpose" }

// Run implements Workload.
func (w *Transpose) Run(r *mpi.Rank) {
	iters := w.Iterations
	if iters <= 0 {
		iters = 1
	}
	n := r.Size()
	if n == 1 {
		return
	}
	px, py := Factor2D(n)
	x := r.Rank() % px
	y := r.Rank() / px
	// The transposed coordinate may fall outside a non-square grid; clamp to a
	// plain pairwise partner in that case.
	tx, ty := y, x
	partner := r.Rank()
	if tx < px && ty < py {
		partner = tx + ty*px
	}
	for i := 0; i < iters; i++ {
		if partner == r.Rank() {
			r.Barrier()
			continue
		}
		recvReq := r.Irecv(partner)
		sendReq := r.Isend(partner, w.BlockBytes, core.PointToPoint)
		r.Wait(sendReq)
		r.Wait(recvReq)
		r.Barrier()
	}
}

// Halo2D is a five-point 2D stencil exchange (the 2D cousin of halo3d),
// common in structured-grid codes.
type Halo2D struct {
	// FaceBytes is the per-neighbour message size.
	FaceBytes int64
	// Iterations is the number of exchange rounds per Run.
	Iterations int
	// ComputeCycles is the per-iteration compute time between exchanges.
	ComputeCycles int64
}

// Name implements Workload.
func (w *Halo2D) Name() string { return "halo2d" }

// Run implements Workload.
func (w *Halo2D) Run(r *mpi.Rank) {
	iters := w.Iterations
	if iters <= 0 {
		iters = 1
	}
	n := r.Size()
	px, py := Factor2D(n)
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
	for i := 0; i < iters; i++ {
		if w.ComputeCycles > 0 {
			r.Compute(w.ComputeCycles)
		}
		haloExchange(r, peers, w.FaceBytes)
	}
}

// Pipeline is a software-pipeline pattern: rank k repeatedly receives a block
// from rank k-1, "computes", and forwards it to rank k+1.
type Pipeline struct {
	// BlockBytes is the forwarded block size.
	BlockBytes int64
	// Stages is the number of blocks pushed through the pipeline per Run.
	Stages int
	// ComputeCycles is the per-stage compute time.
	ComputeCycles int64
}

// Name implements Workload.
func (w *Pipeline) Name() string { return "pipeline" }

// Run implements Workload.
func (w *Pipeline) Run(r *mpi.Rank) {
	n := r.Size()
	if n == 1 {
		return
	}
	stages := w.Stages
	if stages <= 0 {
		stages = 4
	}
	for s := 0; s < stages; s++ {
		if r.Rank() > 0 {
			r.Recv(r.Rank() - 1)
		}
		if w.ComputeCycles > 0 {
			r.Compute(w.ComputeCycles)
		}
		if r.Rank() < n-1 {
			r.Send(r.Rank()+1, w.BlockBytes, core.PointToPoint)
		}
	}
}

// TunedCollectives exercises the size-tuned collective algorithms back to
// back, reproducing the phase structure of an application that mixes small
// control collectives with large data collectives.
type TunedCollectives struct {
	// SmallBytes and LargeBytes are the two payload regimes.
	SmallBytes int64
	LargeBytes int64
	// Iterations is the number of phase pairs per Run.
	Iterations int
}

// Name implements Workload.
func (w *TunedCollectives) Name() string { return "tuned-collectives" }

// Run implements Workload.
func (w *TunedCollectives) Run(r *mpi.Rank) {
	iters := w.Iterations
	if iters <= 0 {
		iters = 1
	}
	small, large := w.SmallBytes, w.LargeBytes
	if small <= 0 {
		small = 64
	}
	if large <= 0 {
		large = 64 << 10
	}
	for i := 0; i < iters; i++ {
		r.TunedAllreduce(small)
		r.TunedBroadcast(0, large)
		r.TunedAlltoall(small)
		r.TunedAllreduce(large)
	}
}
