// Collectives example: run the same logical allreduce and alltoall with
// different collective algorithms (recursive doubling / ring / Rabenseifner,
// pairwise / Bruck / spread) under the Adaptive and Adaptive-with-High-Bias
// routing modes. The traffic pattern an algorithm generates changes which
// routing mode wins — the same interaction the paper observes between
// workloads and routing, one level lower in the stack.
//
// Run with:
//
//	go run ./examples/collectives
package main

import (
	"fmt"
	"log"

	"dragonfly"
)

const messageBytes = 16 << 10

func main() {
	algorithms := []struct {
		name string
		body func(r *dragonfly.Rank)
	}{
		{"allreduce/recursive-doubling", func(r *dragonfly.Rank) { r.Allreduce(messageBytes) }},
		{"allreduce/ring", func(r *dragonfly.Rank) { r.AllreduceRing(messageBytes) }},
		{"allreduce/rabenseifner", func(r *dragonfly.Rank) { r.AllreduceRabenseifner(messageBytes) }},
		{"alltoall/pairwise", func(r *dragonfly.Rank) { r.Alltoall(messageBytes) }},
		{"alltoall/bruck", func(r *dragonfly.Rank) { r.AlltoallBruck(messageBytes) }},
		{"alltoall/spread", func(r *dragonfly.Rank) { r.AlltoallSpread(messageBytes) }},
	}

	fmt.Printf("%-30s %18s %18s %10s\n", "algorithm", "Adaptive (cycles)", "HighBias (cycles)", "winner")
	for _, a := range algorithms {
		adaptive := measure(a.name, a.body, dragonfly.Adaptive)
		biased := measure(a.name, a.body, dragonfly.AdaptiveHighBias)
		winner := "Adaptive"
		if biased < adaptive {
			winner = "HighBias"
		}
		fmt.Printf("%-30s %18d %18d %10s\n", a.name, adaptive, biased, winner)
	}
	fmt.Println()
	fmt.Println("The tuned collectives (Rank.TunedAllreduce and friends) pick the algorithm per")
	fmt.Println("message size the way production MPI libraries do; combine them with the")
	fmt.Println("application-aware selector (dragonfly.AppAware) to adapt both the algorithm and")
	fmt.Println("the routing mode at runtime.")
}

// measure runs the collective once on a fresh 16-rank system with the given
// routing mode and returns the elapsed simulated cycles.
func measure(name string, body func(r *dragonfly.Rank), mode dragonfly.Mode) int64 {
	sys, err := dragonfly.New(
		dragonfly.WithGeometry(dragonfly.SmallGeometry(4)),
		dragonfly.WithSeed(3),
	)
	if err != nil {
		log.Fatal(err)
	}
	job, err := sys.Allocate(dragonfly.GroupStriped, 16)
	if err != nil {
		log.Fatal(err)
	}
	res, err := job.Run(dragonfly.WorkloadFunc(name, body), dragonfly.RunOptions{
		Routing: dragonfly.StaticRouting(mode),
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.Time()
}
