package workloads

import (
	"dragonfly/internal/core"
	"dragonfly/internal/mpi"
)

// PingPong bounces a message of MessageBytes between rank 0 and rank 1,
// Iterations times. Other ranks return immediately (the paper's ping-pong
// runs with exactly two communicating nodes inside a larger allocation).
type PingPong struct {
	// MessageBytes is the ping (and pong) payload size.
	MessageBytes int64
	// Iterations is the number of round trips per Run.
	Iterations int
}

// Name implements Workload.
func (p *PingPong) Name() string { return "pingpong" }

// Run implements Workload.
func (p *PingPong) Run(r *mpi.Rank) {
	iters := p.Iterations
	if iters <= 0 {
		iters = 1
	}
	switch r.Rank() {
	case 0:
		for i := 0; i < iters; i++ {
			r.Send(1, p.MessageBytes, core.PointToPoint)
			r.Recv(1)
		}
	case 1:
		for i := 0; i < iters; i++ {
			r.Recv(0)
			r.Send(0, p.MessageBytes, core.PointToPoint)
		}
	}
}

// Allreduce performs a sum reduction over an array of Elements 4-byte
// integers, matching the paper's definition of the allreduce input size.
type Allreduce struct {
	// Elements is the number of 4-byte elements reduced.
	Elements int64
	// Iterations is the number of allreduce calls per Run.
	Iterations int
}

// Name implements Workload.
func (a *Allreduce) Name() string { return "allreduce" }

// Run implements Workload.
func (a *Allreduce) Run(r *mpi.Rank) {
	iters := a.Iterations
	if iters <= 0 {
		iters = 1
	}
	for i := 0; i < iters; i++ {
		r.Allreduce(a.Elements * 4)
	}
}

// Alltoall exchanges MessageBytes between every pair of ranks.
type Alltoall struct {
	// MessageBytes is the per-pair payload.
	MessageBytes int64
	// Iterations is the number of alltoall calls per Run.
	Iterations int
}

// Name implements Workload.
func (a *Alltoall) Name() string { return "alltoall" }

// Run implements Workload.
func (a *Alltoall) Run(r *mpi.Rank) {
	iters := a.Iterations
	if iters <= 0 {
		iters = 1
	}
	for i := 0; i < iters; i++ {
		r.Alltoall(a.MessageBytes)
	}
}

// Barrier synchronizes all ranks.
type Barrier struct {
	// Iterations is the number of barrier calls per Run.
	Iterations int
}

// Name implements Workload.
func (b *Barrier) Name() string { return "barrier" }

// Run implements Workload.
func (b *Barrier) Run(r *mpi.Rank) {
	iters := b.Iterations
	if iters <= 0 {
		iters = 1
	}
	for i := 0; i < iters; i++ {
		r.Barrier()
	}
}

// Broadcast sends MessageBytes from rank 0 to every other rank.
type Broadcast struct {
	// MessageBytes is the broadcast payload.
	MessageBytes int64
	// Iterations is the number of broadcast calls per Run.
	Iterations int
}

// Name implements Workload.
func (b *Broadcast) Name() string { return "broadcast" }

// Run implements Workload.
func (b *Broadcast) Run(r *mpi.Rank) {
	iters := b.Iterations
	if iters <= 0 {
		iters = 1
	}
	for i := 0; i < iters; i++ {
		r.Broadcast(0, b.MessageBytes)
	}
}

// Halo3D is the ember halo3d nearest-neighbour benchmark: ranks form a 3D
// grid, each exchanging its six faces with the neighbouring ranks every
// iteration. DomainEdge is the edge length of the global cubic domain; each
// cell carries 8 bytes, so a face message is (edge/p)^2 * 8 bytes.
type Halo3D struct {
	// DomainEdge is the global domain edge length (the paper's input size,
	// e.g. 1024 for the 1024^3 runs).
	DomainEdge int64
	// Iterations is the number of halo-exchange steps per Run.
	Iterations int

	px, py, pz int
}

// NewHalo3D builds a Halo3D workload with a balanced process grid over ranks
// ranks. The ember benchmark is communication-only: no compute between
// exchanges.
func NewHalo3D(ranks int, domainEdge int64, iterations int) *Halo3D {
	px, py, pz := Factor3D(ranks)
	return &Halo3D{DomainEdge: domainEdge, Iterations: iterations, px: px, py: py, pz: pz}
}

// Name implements Workload.
func (h *Halo3D) Name() string { return "halo3d" }

// faceBytes returns the message size of a face exchange along the axis with p
// processes, assuming 8-byte cells.
func (h *Halo3D) faceBytes(pa, pb int) int64 {
	ea := h.DomainEdge / int64(pa)
	eb := h.DomainEdge / int64(pb)
	if ea < 1 {
		ea = 1
	}
	if eb < 1 {
		eb = 1
	}
	return ea * eb * 8
}

// Run implements Workload.
func (h *Halo3D) Run(r *mpi.Rank) {
	iters := h.Iterations
	if iters <= 0 {
		iters = 1
	}
	x, y, z := grid3(r.Rank(), h.px, h.py, h.pz)
	type neighbour struct {
		rank  int
		bytes int64
	}
	var neighbours []neighbour
	addNeighbour := func(nx, ny, nz int, bytes int64) {
		if nx < 0 || nx >= h.px || ny < 0 || ny >= h.py || nz < 0 || nz >= h.pz {
			return
		}
		neighbours = append(neighbours, neighbour{rank3(nx, ny, nz, h.px, h.py), bytes})
	}
	addNeighbour(x-1, y, z, h.faceBytes(h.py, h.pz))
	addNeighbour(x+1, y, z, h.faceBytes(h.py, h.pz))
	addNeighbour(x, y-1, z, h.faceBytes(h.px, h.pz))
	addNeighbour(x, y+1, z, h.faceBytes(h.px, h.pz))
	addNeighbour(x, y, z-1, h.faceBytes(h.px, h.py))
	addNeighbour(x, y, z+1, h.faceBytes(h.px, h.py))

	for i := 0; i < iters; i++ {
		reqs := make([]*mpi.Request, 0, 2*len(neighbours))
		for _, n := range neighbours {
			reqs = append(reqs, r.Irecv(n.rank))
		}
		for _, n := range neighbours {
			reqs = append(reqs, r.Isend(n.rank, n.bytes, core.PointToPoint))
		}
		r.WaitAll(reqs...)
	}
}

// Sweep3D is the ember sweep3d wavefront benchmark: ranks form a 2D grid over
// the X-Y plane and a wavefront starting at the corner sweeps across the grid,
// with each rank receiving from its west and north neighbours, passing a
// block of sweepKPlanes Z-planes on without compute, and forwarding to its
// east and south neighbours.
type Sweep3D struct {
	// DomainEdge is the global domain edge length (the paper's input size).
	DomainEdge int64
	// Iterations is the number of full sweeps per Run.
	Iterations int

	px, py int
}

// sweepKPlanes is the Z-blocking factor of the Sweep3D wavefront.
const sweepKPlanes = 8

// NewSweep3D builds a Sweep3D workload with a balanced 2D process grid over
// ranks ranks.
func NewSweep3D(ranks int, domainEdge int64, iterations int) *Sweep3D {
	px, py := Factor2D(ranks)
	return &Sweep3D{DomainEdge: domainEdge, Iterations: iterations, px: px, py: py}
}

// Name implements Workload.
func (s *Sweep3D) Name() string { return "sweep3d" }

// Run implements Workload.
func (s *Sweep3D) Run(r *mpi.Rank) {
	iters := s.Iterations
	if iters <= 0 {
		iters = 1
	}
	x := r.Rank() % s.px
	y := r.Rank() / s.px
	if y >= s.py {
		return
	}
	// Per-block message size: the X (resp. Y) boundary of a block of
	// sweepKPlanes planes, 8 bytes per cell.
	edgeX := s.DomainEdge / int64(s.px)
	edgeY := s.DomainEdge / int64(s.py)
	if edgeX < 1 {
		edgeX = 1
	}
	if edgeY < 1 {
		edgeY = 1
	}
	msgEW := edgeY * sweepKPlanes * 8
	msgNS := edgeX * sweepKPlanes * 8
	blocks := s.DomainEdge / sweepKPlanes
	if blocks < 1 {
		blocks = 1
	}
	west := -1
	if x > 0 {
		west = r.Rank() - 1
	}
	east := -1
	if x < s.px-1 {
		east = r.Rank() + 1
	}
	north := -1
	if y > 0 {
		north = r.Rank() - s.px
	}
	south := -1
	if y < s.py-1 {
		south = r.Rank() + s.px
	}
	for it := 0; it < iters; it++ {
		for b := int64(0); b < blocks; b++ {
			if west >= 0 {
				r.Recv(west)
			}
			if north >= 0 {
				r.Recv(north)
			}
			if east >= 0 {
				r.Send(east, msgEW, core.PointToPoint)
			}
			if south >= 0 {
				r.Send(south, msgNS, core.PointToPoint)
			}
		}
	}
}
