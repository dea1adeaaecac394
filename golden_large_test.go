package dragonfly_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"dragonfly"
	"dragonfly/internal/workloads"
)

// Golden hashes over the Large ladder rung (6 full Aries groups, 2304
// nodes): a single Job.Run and a two-application RunConcurrent, at tiny
// iteration counts. They pin the compact-arena refactor — O(links)
// adjacency, lazy NIC windows, streaming digests — byte-identical end to
// end at a machine size dense structures would make wasteful. They were
// captured after verifying the pre-existing quick-scale goldens (fig3,
// noisesweep, cotenant) unchanged.
const (
	goldenLargeSingle     = "b4baddc597a56da2a9da20cfe63969b7fe78024b5c992b40549e01f3f135ed6b"
	goldenLargeConcurrent = "32171faaf57519179e34241ec13383bbd2b3067e62d7b44db1fb8f0bde12bf9a"
)

// renderResults formats everything deterministic a Result carries.
func renderResults(results []dragonfly.Result) string {
	var b strings.Builder
	for i, r := range results {
		fmt.Fprintf(&b, "job %d setup=%s times=%v tileFlits=%d tileStalled=%d\n",
			i, r.Setup, r.Times, r.TileFlits, r.TileStalled)
		fmt.Fprintf(&b, "  counters=%+v\n", r.Counters)
		for j, d := range r.Deltas {
			fmt.Fprintf(&b, "  delta[%d]=%+v\n", j, d)
		}
	}
	return b.String()
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// largeSystem builds the Large-rung system with two disjoint 16-node jobs.
func largeSystem(t *testing.T) (*dragonfly.System, *dragonfly.Job, *dragonfly.Job) {
	t.Helper()
	sys, err := dragonfly.New(
		dragonfly.WithGeometry(dragonfly.Large),
		dragonfly.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := sys.Allocate(dragonfly.GroupStriped, 16)
	if err != nil {
		t.Fatal(err)
	}
	neighbor, err := sys.Allocate(dragonfly.GroupStriped, 16)
	if err != nil {
		t.Fatal(err)
	}
	return sys, victim, neighbor
}

// TestGoldenLargeSingleRun pins a Job.Run on the Large preset.
func TestGoldenLargeSingleRun(t *testing.T) {
	_, victim, _ := largeSystem(t)
	res, err := victim.Run(&workloads.Alltoall{MessageBytes: 2 << 10, Iterations: 1},
		dragonfly.RunOptions{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	rendered := renderResults([]dragonfly.Result{res})
	if got := sha(rendered); got != goldenLargeSingle {
		t.Fatalf("Large-preset Job.Run drifted from the golden hash:\n got %s\nwant %s\nrendered:\n%s",
			got, goldenLargeSingle, rendered)
	}
}

// TestGoldenLargeRunConcurrent pins a two-application RunConcurrent on the
// Large preset: an alltoall victim under the Cray default routing next to a
// halo3d neighbor under Adaptive with High Bias.
func TestGoldenLargeRunConcurrent(t *testing.T) {
	sys, victim, neighbor := largeSystem(t)
	nw, err := dragonfly.NewWorkload("halo3d", neighbor.Size(), workloads.SizeFor("halo3d", 2<<10))
	if err != nil {
		t.Fatal(err)
	}
	results, err := sys.RunConcurrent([]dragonfly.JobRun{
		{
			Job:      victim,
			Workload: &workloads.Alltoall{MessageBytes: 2 << 10, Iterations: 1},
			Options:  dragonfly.RunOptions{Iterations: 2},
		},
		{
			Job:      neighbor,
			Workload: nw,
			Options: dragonfly.RunOptions{
				Routing:    dragonfly.StaticRouting(dragonfly.AdaptiveHighBias),
				Iterations: 2,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rendered := renderResults(results)
	if got := sha(rendered); got != goldenLargeConcurrent {
		t.Fatalf("Large-preset RunConcurrent drifted from the golden hash:\n got %s\nwant %s\nrendered:\n%s",
			got, goldenLargeConcurrent, rendered)
	}
}
