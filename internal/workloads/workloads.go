// Package workloads implements the communication patterns evaluated in the
// paper: the microbenchmarks of §5.1 (ping-pong, allreduce, alltoall, barrier,
// broadcast, halo3d, sweep3d) and communication skeletons of the real
// applications of §5.2 (CP2K, WRF, LAMMPS, Quantum Espresso, Nekbone, VPFFT,
// Amber, MILC, HPCG, Graph500 BFS/SSSP, FFT).
//
// A workload is a program executed by every rank of a communicator
// (mpi.Comm.Start). Workloads only generate traffic and compute delays; all
// measurement happens outside (the experiments package samples the simulated
// clock around each iteration).
package workloads

import (
	"fmt"
	"sort"

	"dragonfly/internal/mpi"
)

// Workload is a communication pattern runnable on a communicator.
type Workload interface {
	// Name returns the workload's name as used in the paper's figures.
	Name() string
	// Run executes the workload on one rank. It is called once per rank,
	// on the coroutine mpi.Comm.Start binds to that rank.
	Run(r *mpi.Rank)
}

// Func adapts a function to the Workload interface.
type Func struct {
	// WorkloadName is returned by Name.
	WorkloadName string
	// Body is invoked by Run.
	Body func(r *mpi.Rank)
}

// Name implements Workload.
func (f Func) Name() string { return f.WorkloadName }

// Run implements Workload.
func (f Func) Run(r *mpi.Rank) { f.Body(r) }

// SizeFor maps a registered workload name to the size argument New expects:
// per-message bytes for the collectives, but a laptop-scale domain edge for
// the stencil workloads — their size parameter is an edge length, and feeding
// a byte count there would explode into terabyte-scale faces. Callers that
// size heterogeneous workloads from one byte-count knob (the co-tenancy and
// full-machine experiments) go through this one mapping.
func SizeFor(name string, messageBytes int64) int64 {
	switch name {
	case "halo3d", "sweep3d":
		return 256
	default:
		return messageBytes
	}
}

// Factor3D factors n into three dimensions px >= py >= pz with px*py*pz == n,
// as balanced as possible. It is used to build process grids for stencil
// workloads.
func Factor3D(n int) (px, py, pz int) {
	if n <= 0 {
		return 1, 1, 1
	}
	best := [3]int{n, 1, 1}
	bestScore := score3(n, 1, 1)
	for a := 1; a*a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		rest := n / a
		for b := a; b*b <= rest; b++ {
			if rest%b != 0 {
				continue
			}
			c := rest / b
			if s := score3(c, b, a); s < bestScore {
				bestScore = s
				best = [3]int{c, b, a}
			}
		}
	}
	return best[0], best[1], best[2]
}

// score3 measures how unbalanced a factorization is (smaller is better).
func score3(a, b, c int) int {
	dims := []int{a, b, c}
	sort.Ints(dims)
	return (dims[2] - dims[0]) + (dims[2] - dims[1])
}

// Factor2D factors n into two dimensions px >= py with px*py == n.
func Factor2D(n int) (px, py int) {
	if n <= 0 {
		return 1, 1
	}
	best := [2]int{n, 1}
	for a := 1; a*a <= n; a++ {
		if n%a == 0 {
			best = [2]int{n / a, a}
		}
	}
	return best[0], best[1]
}

// grid3 maps a rank to its coordinates in a px x py x pz grid.
func grid3(rank, px, py, pz int) (x, y, z int) {
	_ = pz
	x = rank % px
	y = (rank / px) % py
	z = rank / (px * py)
	return x, y, z
}

// rank3 maps grid coordinates back to a rank.
func rank3(x, y, z, px, py int) int { return x + y*px + z*px*py }

// Registry returns the named workload constructors available to the command
// line tools. Each constructor receives the communicator size and a size
// parameter whose meaning is workload specific (bytes for message-based
// benchmarks, domain edge length for stencils, elements for allreduce).
func Registry() map[string]func(ranks int, size int64) Workload {
	return map[string]func(int, int64) Workload{
		"pingpong":  func(_ int, size int64) Workload { return &PingPong{MessageBytes: size, Iterations: 1} },
		"allreduce": func(_ int, size int64) Workload { return &Allreduce{Elements: size, Iterations: 1} },
		"alltoall":  func(_ int, size int64) Workload { return &Alltoall{MessageBytes: size, Iterations: 1} },
		"barrier":   func(_ int, _ int64) Workload { return &Barrier{Iterations: 1} },
		"broadcast": func(_ int, size int64) Workload { return &Broadcast{MessageBytes: size, Iterations: 1} },
		"halo3d":    func(ranks int, size int64) Workload { return NewHalo3D(ranks, size, 1) },
		"sweep3d":   func(ranks int, size int64) Workload { return NewSweep3D(ranks, size, 1) },
		"milc":      func(ranks int, size int64) Workload { return NewMILC(ranks, size) },
		"hpcg":      func(ranks int, size int64) Workload { return NewHPCG(ranks, size) },
		"fft":       func(ranks int, size int64) Workload { return NewFFT(ranks, size) },
		"bfs":       func(ranks int, size int64) Workload { return NewBFS(ranks, size) },
		"sssp":      func(ranks int, size int64) Workload { return NewSSSP(ranks, size) },
		"lammps":    func(ranks int, size int64) Workload { return NewLAMMPS(ranks, size) },
		"cp2k":      func(ranks int, size int64) Workload { return NewCP2K(ranks, size) },
		"nekbone":   func(ranks int, size int64) Workload { return NewNekbone(ranks, size) },
		"wrf-b":     func(ranks int, size int64) Workload { return NewWRF(ranks, size, false) },
		"wrf-t":     func(ranks int, size int64) Workload { return NewWRF(ranks, size, true) },
		"qe":        func(ranks int, size int64) Workload { return NewQuantumEspresso(ranks, size) },
		"vpfft":     func(ranks int, size int64) Workload { return NewVPFFT(ranks, size) },
		"amber":     func(ranks int, size int64) Workload { return NewAmber(ranks, size) },

		// The synthetic patterns of synthetic.go.
		"incast":            incast,
		"shift":             shift,
		"randomaccess":      randomAccess,
		"transpose":         transpose,
		"halo2d":            halo2d,
		"pipeline":          pipeline,
		"tuned-collectives": tunedCollectives,
	}
}

// New builds a workload by name, returning an error for unknown names.
func New(name string, ranks int, size int64) (Workload, error) {
	ctor, ok := Registry()[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q", name)
	}
	return ctor(ranks, size), nil
}

// Names returns the sorted list of registered workload names.
func Names() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for name := range reg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
