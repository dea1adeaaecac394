package dragonfly_test

import (
	"runtime"
	"testing"

	"dragonfly"
	"dragonfly/internal/workloads"
)

// TestParseGeometry pins the ladder-rung and preset grammar.
func TestParseGeometry(t *testing.T) {
	good := []struct {
		in      string
		nodes   int
		routers int
	}{
		{"small", 64, 32},
		{"SMALL", 64, 32},
		{" medium ", 192, 96},
		{"large", 2304, 576},
		{"daint", 5376, 1344},
		{"small:2", 32, 16},
		{"medium:3", 96, 48},
		{"aries:2", 768, 192},
	}
	for _, c := range good {
		g, err := dragonfly.ParseGeometry(c.in)
		if err != nil {
			t.Fatalf("ParseGeometry(%q): %v", c.in, err)
		}
		if g.Nodes() != c.nodes || g.Routers() != c.routers {
			t.Fatalf("ParseGeometry(%q) = %d nodes / %d routers, want %d / %d",
				c.in, g.Nodes(), g.Routers(), c.nodes, c.routers)
		}
	}
	bad := []string{"", "tiny", "aries", "small:0", "small:-1", "small:x", "large:3", "daint:2", "small:"}
	for _, in := range bad {
		if _, err := dragonfly.ParseGeometry(in); err == nil {
			t.Fatalf("ParseGeometry(%q) unexpectedly succeeded", in)
		}
	}
}

// TestGeometryLadderValidAscending checks every ladder rung builds and that
// the rungs genuinely ascend in machine size.
func TestGeometryLadderValidAscending(t *testing.T) {
	rungs := dragonfly.GeometryLadder()
	if len(rungs) != 4 {
		t.Fatalf("ladder has %d rungs, want 4", len(rungs))
	}
	prev := 0
	for _, rung := range rungs {
		if err := rung.Geometry.Validate(); err != nil {
			t.Fatalf("rung %s: %v", rung.Name, err)
		}
		if n := rung.Geometry.Nodes(); n <= prev {
			t.Fatalf("rung %s (%d nodes) does not grow past the previous rung (%d)", rung.Name, n, prev)
		} else {
			prev = n
		}
	}
}

// TestGeometryLadderMemoryBudget walks the full ladder, building each rung
// and running a short workload on it, and enforces a per-rung live-heap
// budget. The logged numbers are the source of EXPERIMENTS.md's
// memory-budget table; the budgets are set ~4x above the measured values so
// the test flags regressions, not noise.
func TestGeometryLadderMemoryBudget(t *testing.T) {
	budgets := map[string]uint64{ // live heap after build+run, in MiB
		"small":  16,
		"medium": 16,
		"large":  32,
		"daint":  64,
	}
	for _, rung := range dragonfly.GeometryLadder() {
		rung := rung
		t.Run(rung.Name, func(t *testing.T) {
			sys, err := dragonfly.New(
				dragonfly.WithGeometry(rung.Geometry),
				dragonfly.WithSeed(1),
			)
			if err != nil {
				t.Fatal(err)
			}
			job, err := sys.Allocate(dragonfly.GroupStriped, 16)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := job.Run(&workloads.Alltoall{MessageBytes: 2 << 10, Iterations: 1},
				dragonfly.RunOptions{Iterations: 2}); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			tp := sys.Topology()
			t.Logf("%s: %d nodes, %d routers, %d links, adjacency %.1f KiB, live heap %.2f MiB",
				rung.Name, tp.NumNodes(), tp.NumRouters(), tp.NumLinks(),
				float64(tp.AdjacencyBytes())/1024, float64(ms.HeapAlloc)/(1<<20))
			if got := ms.HeapAlloc >> 20; got > budgets[rung.Name] {
				t.Fatalf("rung %s holds %d MiB live heap, budget %d MiB", rung.Name, got, budgets[rung.Name])
			}
		})
	}
}

// TestDaintScaleBuildsAndRuns is the machine-scale acceptance test: a
// Daint-class system (14 full Aries groups, 5376 nodes) builds, allocates a
// job, runs a short workload, and stays far inside the 2 GiB budget the
// compact arenas exist for.
func TestDaintScaleBuildsAndRuns(t *testing.T) {
	sys, err := dragonfly.New(
		dragonfly.WithGeometry(dragonfly.Daint),
		dragonfly.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	tp := sys.Topology()
	if tp.NumNodes() != 5376 || tp.NumRouters() != 1344 {
		t.Fatalf("Daint rung is %d nodes / %d routers, want 5376 / 1344", tp.NumNodes(), tp.NumRouters())
	}
	job, err := sys.Allocate(dragonfly.GroupStriped, 32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run(&workloads.Alltoall{MessageBytes: 2 << 10, Iterations: 1},
		dragonfly.RunOptions{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != 2 || res.Time() <= 0 {
		t.Fatalf("Daint run measured nothing: %v", res.Times)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// The acceptance bar is < 2 GiB RSS; the arenas keep the live heap two
	// orders of magnitude under that, so flag anything past 512 MiB as a
	// memory regression.
	if ms.HeapAlloc > 512<<20 {
		t.Fatalf("Daint-scale run holds %d MiB live heap, want < 512 MiB", ms.HeapAlloc>>20)
	}
	t.Logf("Daint-scale: %d nodes, %d routers, %d links, adjacency %.1f KiB, live heap %.1f MiB",
		tp.NumNodes(), tp.NumRouters(), tp.NumLinks(),
		float64(tp.AdjacencyBytes())/1024, float64(ms.HeapAlloc)/(1<<20))
}
