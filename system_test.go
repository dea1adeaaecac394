package dragonfly_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"dragonfly"
	"dragonfly/internal/msglog"
	"dragonfly/internal/telemetry"
	"dragonfly/internal/workloads"
)

func testSystem(t *testing.T, opts ...dragonfly.Option) *dragonfly.System {
	t.Helper()
	opts = append([]dragonfly.Option{
		dragonfly.WithGeometry(dragonfly.SmallGeometry(2)),
		dragonfly.WithSeed(7),
	}, opts...)
	sys, err := dragonfly.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewDefaults(t *testing.T) {
	sys, err := dragonfly.New()
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Topology().Config().Groups; got != 4 {
		t.Fatalf("default geometry has %d groups, want 4", got)
	}
	if sys.Seed() != 1 {
		t.Fatalf("default seed = %d, want 1", sys.Seed())
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := dragonfly.New(dragonfly.WithGeometry(dragonfly.Geometry{})); err == nil {
		t.Fatal("invalid geometry accepted")
	}
	if _, err := dragonfly.New(dragonfly.WithRouting(dragonfly.RoutingParams{})); err == nil {
		t.Fatal("invalid routing params accepted")
	}
	if _, err := dragonfly.New(dragonfly.WithNetworkConfig(dragonfly.NetworkConfig{})); err == nil {
		t.Fatal("invalid network config accepted")
	}
	if _, err := dragonfly.New(dragonfly.WithNoise(dragonfly.NoiseConfig{Nodes: 1})); err == nil {
		t.Fatal("one-node noise job accepted")
	}
}

func TestAllocateTooLarge(t *testing.T) {
	sys := testSystem(t)
	machine := sys.Topology().NumNodes()
	if _, err := sys.Allocate(dragonfly.GroupStriped, machine+1); !errors.Is(err, dragonfly.ErrJobTooLarge) {
		t.Fatalf("Allocate(machine+1): err = %v, want ErrJobTooLarge", err)
	}
	if _, err := sys.Allocate(dragonfly.GroupStriped, 0); err == nil {
		t.Fatal("Allocate(0) accepted")
	}
	// A machine-filling job is fine; the next allocation of any size is not.
	if _, err := sys.Allocate(dragonfly.Contiguous, machine); err != nil {
		t.Fatalf("Allocate(machine): %v", err)
	}
	if _, err := sys.Allocate(dragonfly.Contiguous, 1); !errors.Is(err, dragonfly.ErrJobTooLarge) {
		t.Fatalf("Allocate on a full machine: err = %v, want ErrJobTooLarge", err)
	}
}

func TestJobsAreDisjoint(t *testing.T) {
	sys := testSystem(t)
	a, err := sys.Allocate(dragonfly.RandomScatter, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Allocate(dragonfly.RandomScatter, 6)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[dragonfly.NodeID]bool)
	for _, n := range a.Nodes() {
		seen[n] = true
	}
	for _, n := range b.Nodes() {
		if seen[n] {
			t.Fatalf("node %d allocated to both jobs", n)
		}
	}
	if free := sys.FreeNodes(); free != sys.Topology().NumNodes()-12 {
		t.Fatalf("FreeNodes = %d, want %d", free, sys.Topology().NumNodes()-12)
	}
}

func TestAllocatePairCollision(t *testing.T) {
	sys := testSystem(t)
	// Contiguous takes the low node ids, which is exactly where the
	// deterministic pair nodes live.
	if _, err := sys.Allocate(dragonfly.Contiguous, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AllocatePair(dragonfly.InterGroups); err == nil {
		t.Fatal("AllocatePair handed out nodes that belong to another job")
	}
	// On a fresh system the same pair is fine.
	fresh := testSystem(t)
	pair, err := fresh.AllocatePair(dragonfly.InterGroups)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Size() != 2 {
		t.Fatalf("pair has %d nodes, want 2", pair.Size())
	}
}

func TestRunDeterministic(t *testing.T) {
	measure := func() dragonfly.Result {
		sys := testSystem(t)
		job, err := sys.Allocate(dragonfly.GroupStriped, 4)
		if err != nil {
			t.Fatal(err)
		}
		sys.StartNoise(dragonfly.NoiseConfig{Pattern: dragonfly.NoiseUniform, Nodes: 4})
		res, err := job.Run(&workloads.PingPong{MessageBytes: 4 << 10, Iterations: 2},
			dragonfly.RunOptions{Routing: dragonfly.StaticRouting(dragonfly.Adaptive), Iterations: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := measure(), measure()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("two identically-built systems measured differently:\n%+v\n%+v", r1, r2)
	}
	if len(r1.Times) != 3 || len(r1.Deltas) != 3 {
		t.Fatalf("got %d times / %d deltas, want 3 / 3", len(r1.Times), len(r1.Deltas))
	}
	if r1.Time() <= 0 {
		t.Fatal("run took no simulated time")
	}
	if r1.Counters.RequestPackets == 0 {
		t.Fatal("run moved no NIC packets")
	}
	if r1.TileFlits == 0 {
		t.Fatal("run moved no tile flits through the job's routers")
	}
}

func TestRunAppAwareStats(t *testing.T) {
	sys := testSystem(t)
	job, err := sys.Allocate(dragonfly.GroupStriped, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run(&workloads.Alltoall{MessageBytes: 16 << 10, Iterations: 1},
		dragonfly.RunOptions{Routing: dragonfly.AppAware(), Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasSelectorStats {
		t.Fatal("AppAware run reported no selector stats")
	}
	if res.SelectorStats.Messages == 0 {
		t.Fatal("selector saw no messages")
	}
	if res.Setup != "AppAware" {
		t.Fatalf("Setup = %q, want AppAware", res.Setup)
	}
}

// TestAppAwareRoutingReusable pins that one AppAware Routing value can be
// used for several runs like the static configurations: each run's stats
// cover only that run, not an accumulation over all previous ones.
func TestAppAwareRoutingReusable(t *testing.T) {
	sys := testSystem(t)
	job, err := sys.Allocate(dragonfly.GroupStriped, 4)
	if err != nil {
		t.Fatal(err)
	}
	aware := dragonfly.AppAware()
	w := &workloads.Alltoall{MessageBytes: 16 << 10, Iterations: 1}
	r1, err := job.Run(w, dragonfly.RunOptions{Routing: aware})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := job.Run(w, dragonfly.RunOptions{Routing: aware})
	if err != nil {
		t.Fatal(err)
	}
	if r2.SelectorStats.Messages != r1.SelectorStats.Messages {
		t.Fatalf("second run reports %d selector messages, want %d (per-run stats, not cumulative)",
			r2.SelectorStats.Messages, r1.SelectorStats.Messages)
	}
}

// TestNoiseGeneratorsIndependent pins that two background jobs with the same
// pattern draw from different random streams rather than moving in lockstep.
func TestNoiseGeneratorsIndependent(t *testing.T) {
	sys := testSystem(t)
	g1 := sys.StartNoise(dragonfly.NoiseConfig{Pattern: dragonfly.NoiseUniform, Nodes: 4})
	g2 := sys.StartNoise(dragonfly.NoiseConfig{Pattern: dragonfly.NoiseUniform, Nodes: 4})
	if g1 == nil || g2 == nil {
		t.Fatal("generators did not start")
	}
	sys.Engine().RunUntil(2_000_000)
	if g1.MessagesSent() == 0 || g2.MessagesSent() == 0 {
		t.Fatalf("generators idle: %d / %d messages", g1.MessagesSent(), g2.MessagesSent())
	}
	// Same node count, same pattern, same message size, same horizon:
	// identical seeds would send identical message counts in lockstep.
	// (Deterministic for a fixed seed.)
	if g1.MessagesSent() == g2.MessagesSent() {
		t.Fatalf("same-pattern generators are in lockstep: %d messages each", g1.MessagesSent())
	}
}

// TestMessageLogRecordsJobAndNoise: a message log attached to the fabric
// records every delivery of a Job.Run, the job's own and the background
// noise's alike.
func TestMessageLogRecordsJobAndNoise(t *testing.T) {
	sys := testSystem(t)
	job, err := sys.AllocatePair(dragonfly.InterGroups)
	if err != nil {
		t.Fatal(err)
	}
	if sys.StartNoise(dragonfly.NoiseConfig{Pattern: dragonfly.NoiseUniform, Nodes: 4}) == nil {
		t.Fatal("background job did not start")
	}
	log := msglog.NewLog()
	log.Attach(sys.Fabric())
	if _, err := job.Run(&workloads.PingPong{MessageBytes: 64 << 10, Iterations: 4}, dragonfly.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	log.Detach(sys.Fabric())
	mine := make(map[dragonfly.NodeID]bool)
	for _, n := range job.Nodes() {
		mine[n] = true
	}
	var jobs, noise int
	for _, r := range log.Records() {
		if r.DeliveredAt < r.SendStart {
			t.Fatalf("delivery finished before it started: %+v", r)
		}
		if mine[r.Src] && mine[r.Dst] {
			jobs++
		} else {
			noise++
		}
	}
	if jobs == 0 || noise == 0 {
		t.Fatalf("log holds %d job and %d noise deliveries, want both", jobs, noise)
	}
}

func TestRunContextCancellation(t *testing.T) {
	sys := testSystem(t)
	job, err := sys.Allocate(dragonfly.GroupStriped, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = job.Run(&workloads.PingPong{MessageBytes: 1 << 10, Iterations: 1},
		dragonfly.RunOptions{Context: ctx, Iterations: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

func TestWithNoiseStartsOnFirstAllocation(t *testing.T) {
	sys := testSystem(t, dragonfly.WithNoise(dragonfly.NoiseConfig{
		Pattern: dragonfly.NoiseUniform, Nodes: 4,
	}))
	if len(sys.NoiseGenerators()) != 0 {
		t.Fatal("noise started before any job was allocated")
	}
	job, err := sys.Allocate(dragonfly.GroupStriped, 4)
	if err != nil {
		t.Fatal(err)
	}
	gens := sys.NoiseGenerators()
	if len(gens) != 1 {
		t.Fatalf("got %d noise generators after first allocation, want 1", len(gens))
	}
	// The background job fits next to the measured job and actually runs.
	if gens[0].NumNodes()+job.Size() > sys.Topology().NumNodes() {
		t.Fatal("background job overlaps the measured job")
	}
	sys.Engine().RunUntil(200_000)
	if gens[0].MessagesSent() == 0 {
		t.Fatal("background generator sent nothing")
	}
}

func TestStartNoiseNoRoom(t *testing.T) {
	sys := testSystem(t)
	machine := sys.Topology().NumNodes()
	if _, err := sys.Allocate(dragonfly.Contiguous, machine-1); err != nil {
		t.Fatal(err)
	}
	if g := sys.StartNoise(dragonfly.NoiseConfig{Pattern: dragonfly.NoiseUniform, Nodes: 8}); g != nil {
		t.Fatal("noise generator started with a single free node")
	}
}

func TestWithTelemetryCollects(t *testing.T) {
	sys := testSystem(t)
	col, err := telemetry.NewCollector(sys.Fabric(), telemetry.Config{IntervalCycles: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	col.Start(dragonfly.DefaultHorizon)
	job, err := sys.Allocate(dragonfly.GroupStriped, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(&workloads.Alltoall{MessageBytes: 8 << 10, Iterations: 1},
		dragonfly.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	col.Stop()
	col.Flush()
	if len(col.Samples()) == 0 {
		t.Fatal("collector took no samples during the run")
	}
}

// TestResetMatchesFresh is the facade half of cross-trial reuse: a System
// rewound with Reset(seed) must measure byte-identically to a System freshly
// built with that seed — allocation placement, background noise, run times,
// counters, everything.
func TestResetMatchesFresh(t *testing.T) {
	measure := func(sys *dragonfly.System) dragonfly.Result {
		t.Helper()
		job, err := sys.Allocate(dragonfly.GroupStriped, 4)
		if err != nil {
			t.Fatal(err)
		}
		if g := sys.StartNoise(dragonfly.NoiseConfig{Pattern: dragonfly.NoiseUniform, Nodes: 4}); g == nil {
			t.Fatal("noise did not start")
		}
		res, err := job.Run(&workloads.PingPong{MessageBytes: 4 << 10, Iterations: 2},
			dragonfly.RunOptions{Routing: dragonfly.StaticRouting(dragonfly.Adaptive), Iterations: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	build := func(seed int64) *dragonfly.System {
		t.Helper()
		sys, err := dragonfly.New(dragonfly.WithGeometry(dragonfly.SmallGeometry(2)), dragonfly.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	reused := build(3)
	first := measure(reused) // dirty the system with a first trial

	// Reset to a different seed: must match a fresh system with that seed.
	if err := reused.Reset(7); err != nil {
		t.Fatal(err)
	}
	if got := measure(reused); !reflect.DeepEqual(got, measure(build(7))) {
		t.Fatalf("Reset(7) system measured differently from a fresh seed-7 system:\n%+v", got)
	}

	// Reset back to the original seed: must reproduce the first measurement.
	if err := reused.Reset(3); err != nil {
		t.Fatal(err)
	}
	if got := measure(reused); !reflect.DeepEqual(got, first) {
		t.Fatalf("Reset(3) system did not reproduce its own first trial:\nfirst: %+v\nreset: %+v", first, got)
	}
	if reused.Seed() != 3 {
		t.Fatalf("Seed() after Reset = %d, want 3", reused.Seed())
	}
}

// TestResetRearmsWithNoise pins that a WithNoise spec is re-armed by Reset:
// the background job starts again at the first allocation of the new epoch.
func TestResetRearmsWithNoise(t *testing.T) {
	sys := testSystem(t, dragonfly.WithNoise(dragonfly.NoiseConfig{
		Pattern: dragonfly.NoiseUniform, Nodes: 4,
	}))
	if _, err := sys.Allocate(dragonfly.GroupStriped, 4); err != nil {
		t.Fatal(err)
	}
	if len(sys.NoiseGenerators()) != 1 {
		t.Fatal("noise did not start on first allocation")
	}
	if err := sys.Reset(7); err != nil {
		t.Fatal(err)
	}
	if len(sys.NoiseGenerators()) != 0 {
		t.Fatal("Reset kept the previous epoch's noise generators")
	}
	if _, err := sys.Allocate(dragonfly.GroupStriped, 4); err != nil {
		t.Fatal(err)
	}
	if len(sys.NoiseGenerators()) != 1 {
		t.Fatal("WithNoise spec was not re-armed by Reset")
	}
}

// TestResetStaleJob: a job allocated before a Reset must refuse to run.
func TestResetStaleJob(t *testing.T) {
	sys := testSystem(t)
	job, err := sys.Allocate(dragonfly.GroupStriped, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Reset(7); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(&workloads.PingPong{MessageBytes: 1 << 10, Iterations: 1},
		dragonfly.RunOptions{}); err == nil {
		t.Fatal("stale job ran on a reset system")
	}
}

// TestResetFreesNodes: allocations from before the Reset no longer occupy
// the machine.
func TestResetFreesNodes(t *testing.T) {
	sys := testSystem(t)
	machine := sys.Topology().NumNodes()
	if _, err := sys.Allocate(dragonfly.Contiguous, machine); err != nil {
		t.Fatal(err)
	}
	if sys.FreeNodes() != 0 {
		t.Fatalf("FreeNodes = %d after a machine-filling job", sys.FreeNodes())
	}
	if err := sys.Reset(7); err != nil {
		t.Fatal(err)
	}
	if sys.FreeNodes() != machine {
		t.Fatalf("FreeNodes after Reset = %d, want %d", sys.FreeNodes(), machine)
	}
	if _, err := sys.Allocate(dragonfly.Contiguous, machine); err != nil {
		t.Fatalf("machine-filling job after Reset: %v", err)
	}
}

func TestParseRouting(t *testing.T) {
	for _, name := range []string{"default", "appaware", "ADAPTIVE_0", "ADAPTIVE_3", "MIN_HASH"} {
		rc, err := dragonfly.ParseRouting(name)
		if err != nil {
			t.Fatalf("ParseRouting(%q): %v", name, err)
		}
		if rc.Provider == nil {
			t.Fatalf("ParseRouting(%q) has no provider", name)
		}
	}
	if _, err := dragonfly.ParseRouting("nope"); err == nil {
		t.Fatal("ParseRouting accepted an unknown name")
	}
}
