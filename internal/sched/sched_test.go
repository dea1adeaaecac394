package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dragonfly/internal/network"
	"dragonfly/internal/noise"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// testFabric builds a small fabric for scheduler tests.
func testFabric(t testing.TB, groups int, seed int64) *network.Fabric {
	t.Helper()
	tt := topo.MustNew(topo.SmallConfig(groups))
	pol := routing.MustNewPolicy(tt, routing.DefaultParams())
	eng := sim.NewEngine(seed)
	return network.MustNew(eng, tt, pol, network.DefaultConfig())
}

// drain runs the simulation until no events remain.
func drain(t testing.TB, f *network.Fabric) {
	t.Helper()
	if err := f.Engine().Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
}

// submit submits spec and fails the test if the scheduler rejects it.
func submit(t testing.TB, s *Scheduler, spec JobSpec) *JobRecord {
	t.Helper()
	rec, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// generateMix generates the mix and fails the test if the config is rejected.
func generateMix(t testing.TB, cfg MixConfig, maxJobNodes int) []JobSpec {
	t.Helper()
	specs, err := GenerateMix(cfg, maxJobNodes)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func computeJob(name string, nodes int, arrival, duration sim.Time) JobSpec {
	return JobSpec{Name: name, Nodes: nodes, ArrivalCycles: arrival, DurationCycles: duration}
}

func trafficJob(name string, nodes int, arrival, duration sim.Time) JobSpec {
	j := computeJob(name, nodes, arrival, duration)
	j.Traffic = TrafficSpec{
		Pattern:        noise.UniformRandom,
		MessageBytes:   4 << 10,
		IntervalCycles: 10_000,
	}
	return j
}

func TestSingleJobLifecycle(t *testing.T) {
	f := testFabric(t, 2, 1)
	s := New(f, DefaultConfig())
	rec := submit(t, s, computeJob("a", 4, 100, 10_000))
	s.Start()
	drain(t, f)
	if rec.State != Finished {
		t.Fatalf("job state = %v, want finished", rec.State)
	}
	if rec.SubmittedAt != 100 {
		t.Fatalf("SubmittedAt = %d, want 100", rec.SubmittedAt)
	}
	if rec.StartedAt != 100 {
		t.Fatalf("StartedAt = %d, want 100 (machine was empty)", rec.StartedAt)
	}
	if got := rec.FinishedAt - rec.StartedAt; got != 10_000 {
		t.Fatalf("run time = %d, want 10000", got)
	}
	if len(rec.Nodes) != 4 {
		t.Fatalf("allocation has %d nodes, want 4: %v", len(rec.Nodes), rec.Nodes)
	}
	if s.FreeNodes() != f.Topology().NumNodes() {
		t.Fatalf("nodes not released: %d free of %d", s.FreeNodes(), f.Topology().NumNodes())
	}
}

func TestJobsQueueWhenMachineFull(t *testing.T) {
	f := testFabric(t, 2, 2) // 2 groups x 2 chassis x 4 blades x 2 nodes = 32 nodes
	total := f.Topology().NumNodes()
	s := New(f, DefaultConfig())
	a := submit(t, s, computeJob("big", total, 0, 50_000))
	b := submit(t, s, computeJob("next", 4, 0, 10_000))
	s.Start()
	drain(t, f)
	if a.State != Finished || b.State != Finished {
		t.Fatalf("jobs did not finish: %v %v", a.State, b.State)
	}
	if b.StartedAt < a.FinishedAt {
		t.Fatalf("second job started at %d before the machine drained at %d", b.StartedAt, a.FinishedAt)
	}
	if b.WaitCycles() < 50_000 {
		t.Fatalf("second job waited %d cycles, want >= 50000", b.WaitCycles())
	}
}

func TestFCFSOrderWithoutBackfill(t *testing.T) {
	f := testFabric(t, 2, 3)
	total := f.Topology().NumNodes()
	s := New(f, Config{Placement: PlaceContiguous, Backfill: false, Seed: 1})
	submit(t, s, computeJob("running", total/2, 0, 100_000))
	blocked := submit(t, s, computeJob("head-too-big", total, 10, 10_000))
	small := submit(t, s, computeJob("small", 2, 20, 1_000))
	s.Start()
	drain(t, f)
	// Without backfilling, the small job must not overtake the blocked head.
	if small.StartedAt < blocked.StartedAt {
		t.Fatalf("small job started at %d before the queue head at %d without backfill",
			small.StartedAt, blocked.StartedAt)
	}
}

func TestBackfillLetsSmallJobOvertake(t *testing.T) {
	f := testFabric(t, 2, 4)
	total := f.Topology().NumNodes()
	s := New(f, Config{Placement: PlaceContiguous, Backfill: true, Seed: 1})
	submit(t, s, computeJob("running", total/2, 0, 100_000))
	blocked := submit(t, s, computeJob("head-too-big", total, 10, 10_000))
	// Short enough to finish before the running job frees the machine.
	small := submit(t, s, computeJob("small", 2, 20, 1_000))
	s.Start()
	drain(t, f)
	if small.StartedAt >= blocked.StartedAt {
		t.Fatalf("backfill did not let the small job (start %d) overtake the blocked head (start %d)",
			small.StartedAt, blocked.StartedAt)
	}
	if blocked.State != Finished {
		t.Fatalf("blocked head never ran")
	}
}

func TestBackfillDoesNotDelayHead(t *testing.T) {
	f := testFabric(t, 2, 5)
	total := f.Topology().NumNodes()
	s := New(f, Config{Placement: PlaceContiguous, Backfill: true, Seed: 1})
	submit(t, s, computeJob("running", total-2, 0, 50_000))
	head := submit(t, s, computeJob("head", total, 10, 10_000))
	// Too long to fit in the shadow window: would push the head back.
	long := submit(t, s, computeJob("long", 2, 20, 500_000))
	s.Start()
	drain(t, f)
	if long.StartedAt < head.StartedAt {
		t.Fatalf("conservative backfill started a long job (at %d) ahead of the head (at %d)",
			long.StartedAt, head.StartedAt)
	}
}

func TestReserveExcludesForegroundNodes(t *testing.T) {
	f := testFabric(t, 2, 6)
	total := f.Topology().NumNodes()
	reserved := []topo.NodeID{0, 1, 2, 3}
	s := New(f, Config{Placement: PlaceContiguous, Seed: 1})
	s.Reserve(reserved)
	rec := submit(t, s, computeJob("a", total-len(reserved), 0, 1_000))
	s.Start()
	drain(t, f)
	if rec.State != Finished {
		t.Fatalf("job did not finish: %v", rec.State)
	}
	for _, n := range rec.Nodes {
		for _, r := range reserved {
			if n == r {
				t.Fatalf("scheduler placed job on reserved node %d", n)
			}
		}
	}
	// A job larger than the schedulable machine must be rejected.
	if _, err := s.Submit(computeJob("too-big", total, 0, 1_000)); err == nil {
		t.Fatal("expected error for job larger than the schedulable machine")
	}
}

func TestTrafficJobInjectsMessages(t *testing.T) {
	f := testFabric(t, 2, 7)
	s := New(f, Config{Placement: PlaceGroupStriped, Seed: 1})
	rec := submit(t, s, trafficJob("noisy", 8, 0, 500_000))
	s.Start()
	drain(t, f)
	if rec.MessagesSent == 0 {
		t.Fatal("running traffic job injected no messages")
	}
	if f.PacketsInjected() == 0 {
		t.Fatal("fabric saw no packets from the scheduled job")
	}
}

func TestHybridPlacementScattersCommIntensiveJobs(t *testing.T) {
	f := testFabric(t, 4, 8)
	s := New(f, Config{Placement: PlaceHybrid, Seed: 3})
	quiet := computeJob("quiet", 8, 0, 10_000)
	noisy := computeJob("noisy", 8, 0, 10_000)
	noisy.CommIntensive = true
	q := submit(t, s, quiet)
	n := submit(t, s, noisy)
	s.Start()
	drain(t, f)
	if _, groups := s.Spans(q); groups != 1 {
		t.Fatalf("hybrid policy spread a quiet job over %d groups, want 1", groups)
	}
	if _, groups := s.Spans(n); groups <= 1 {
		t.Fatalf("hybrid policy packed a communication-intensive job into %d group(s)", groups)
	}
}

func TestContiguousVersusRandomFragmentation(t *testing.T) {
	groupsSpanned := func(placement AllocationPolicy, seed int64) float64 {
		f := testFabric(t, 4, seed)
		s := New(f, Config{Placement: placement, Seed: seed})
		for i := 0; i < 4; i++ {
			submit(t, s, computeJob("j", 6, sim.Time(i*10), 5_000))
		}
		s.Start()
		drain(t, f)
		return s.Stats().MeanGroupsSpanned
	}
	contig := groupsSpanned(PlaceContiguous, 9)
	random := groupsSpanned(PlaceRandom, 9)
	if contig >= random {
		t.Fatalf("contiguous placement spans %.2f groups on average, random %.2f; expected contiguous < random",
			contig, random)
	}
}

func TestStatsAccounting(t *testing.T) {
	f := testFabric(t, 2, 10)
	s := New(f, DefaultConfig())
	submit(t, s, computeJob("a", 4, 0, 10_000))
	submit(t, s, computeJob("b", 4, 0, 10_000))
	s.Start()
	drain(t, f)
	st := s.Stats()
	if st.Submitted != 2 || st.Started != 2 || st.Finished != 2 {
		t.Fatalf("stats counts wrong: %+v", st)
	}
	if st.Utilization <= 0 || st.Utilization > 1 {
		t.Fatalf("utilization out of range: %f", st.Utilization)
	}
	if st.MakespanCycles < 10_000 {
		t.Fatalf("makespan %d too small", st.MakespanCycles)
	}
	if got := len(s.SortedByStart()); got != 2 {
		t.Fatalf("SortedByStart returned %d records, want 2", got)
	}
}

func TestSubmitAfterStart(t *testing.T) {
	f := testFabric(t, 2, 11)
	s := New(f, DefaultConfig())
	s.Start()
	rec := submit(t, s, computeJob("late", 2, 500, 1_000))
	drain(t, f)
	if rec.State != Finished {
		t.Fatalf("late-submitted job did not finish: %v", rec.State)
	}
	if rec.SubmittedAt != 500 {
		t.Fatalf("late job submitted at %d, want 500", rec.SubmittedAt)
	}
}

func TestJobSpecValidation(t *testing.T) {
	cases := []JobSpec{
		{Name: "zero-nodes", Nodes: 0, DurationCycles: 1},
		{Name: "too-big", Nodes: 1000, DurationCycles: 1},
		{Name: "negative-arrival", Nodes: 1, ArrivalCycles: -1, DurationCycles: 1},
		{Name: "zero-duration", Nodes: 1, DurationCycles: 0},
		{Name: "traffic-no-interval", Nodes: 2, DurationCycles: 1,
			Traffic: TrafficSpec{MessageBytes: 64}},
	}
	for _, c := range cases {
		if err := c.Validate(32); err == nil {
			t.Errorf("spec %q unexpectedly valid", c.Name)
		}
	}
	if err := computeJob("ok", 2, 0, 10).Validate(32); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestAllocationPolicyStringRoundTrip(t *testing.T) {
	for _, p := range []AllocationPolicy{PlaceContiguous, PlaceRandom, PlaceGroupStriped, PlaceHybrid} {
		got, err := ParseAllocationPolicy(p.String())
		if err != nil {
			t.Fatalf("ParseAllocationPolicy(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("round trip of %v gave %v", p, got)
		}
	}
	if _, err := ParseAllocationPolicy("bogus"); err == nil {
		t.Fatal("expected error for unknown policy name")
	}
}

func TestGenerateMixProperties(t *testing.T) {
	cfg := DefaultMixConfig()
	cfg.Jobs = 40
	specs, err := GenerateMix(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 40 {
		t.Fatalf("generated %d jobs, want 40", len(specs))
	}
	var prevArrival sim.Time = -1
	commIntensive := 0
	for _, s := range specs {
		if err := s.Validate(16); err != nil {
			t.Fatalf("generated spec invalid: %v", err)
		}
		if s.ArrivalCycles < prevArrival {
			t.Fatalf("arrivals not monotonic: %d after %d", s.ArrivalCycles, prevArrival)
		}
		prevArrival = s.ArrivalCycles
		if s.Nodes < cfg.MinNodes || s.Nodes > 16 {
			t.Fatalf("job size %d out of [%d, 16]", s.Nodes, cfg.MinNodes)
		}
		if s.CommIntensive {
			commIntensive++
		}
	}
	if commIntensive == 0 || commIntensive == len(specs) {
		t.Fatalf("degenerate communication-intensive share: %d of %d", commIntensive, len(specs))
	}
}

func TestGenerateMixIsDeterministic(t *testing.T) {
	cfg := DefaultMixConfig()
	a := generateMix(t, cfg, 16)
	b := generateMix(t, cfg, 16)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mix not deterministic at job %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateMixRejectsBadConfig(t *testing.T) {
	bad := DefaultMixConfig()
	bad.MaxNodes = 0
	if _, err := GenerateMix(bad, 16); err == nil {
		t.Fatal("expected error for invalid node bounds")
	}
	bad = DefaultMixConfig()
	bad.CommIntensiveFraction = 1.5
	if _, err := GenerateMix(bad, 16); err == nil {
		t.Fatal("expected error for out-of-range fraction")
	}
	if _, err := GenerateMix(DefaultMixConfig(), 1); err == nil {
		t.Fatal("expected error when the machine is smaller than MinNodes")
	}
}

func TestLogUniformStaysInBounds(t *testing.T) {
	prop := func(seed int64, loRaw, spanRaw uint16) bool {
		lo := int64(loRaw%100) + 1
		hi := lo + int64(spanRaw%1000)
		rng := rand.New(rand.NewSource(seed))
		v := logUniform(rng, lo, hi)
		return v >= lo && v <= hi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerNeverOversubscribes runs a random mix and checks the busy-node
// invariant after the run: every job got a disjoint allocation while running.
func TestSchedulerNeverOversubscribes(t *testing.T) {
	f := testFabric(t, 3, 12)
	cfg := DefaultMixConfig()
	cfg.Jobs = 20
	cfg.MaxNodes = 12
	specs := generateMix(t, cfg, f.Topology().NumNodes())
	s := New(f, Config{Placement: PlaceRandom, Backfill: true, Seed: 5})
	for _, spec := range specs {
		submit(t, s, spec)
	}
	s.Start()
	drain(t, f)
	st := s.Stats()
	if st.Finished != cfg.Jobs {
		t.Fatalf("only %d of %d jobs finished", st.Finished, cfg.Jobs)
	}
	// Overlapping-in-time jobs must have disjoint node sets.
	recs := s.SortedByStart()
	for i := 0; i < len(recs); i++ {
		for j := i + 1; j < len(recs); j++ {
			a, b := recs[i], recs[j]
			if a.FinishedAt <= b.StartedAt || b.FinishedAt <= a.StartedAt {
				continue
			}
			seen := make(map[topo.NodeID]bool)
			for _, n := range a.Nodes {
				seen[n] = true
			}
			for _, n := range b.Nodes {
				if seen[n] {
					t.Fatalf("jobs %q and %q overlapped in time and shared node %d", a.Spec.Name, b.Spec.Name, n)
				}
			}
		}
	}
	if s.FreeNodes() != f.Topology().NumNodes() {
		t.Fatalf("nodes leaked: %d free of %d after drain", s.FreeNodes(), f.Topology().NumNodes())
	}
}

// TestStatsMeasureFromStart: utilization and makespan are measured from
// Start, so the same job started on an engine whose clock has already run
// reports the same statistics as one started at t=0.
func TestStatsMeasureFromStart(t *testing.T) {
	run := func(startAt sim.Time) Stats {
		f := testFabric(t, 2, 1)
		if err := f.Engine().RunUntil(startAt); err != nil {
			t.Fatal(err)
		}
		s := New(f, DefaultConfig())
		submit(t, s, computeJob("a", 4, 0, 10_000))
		s.Start()
		drain(t, f)
		return s.Stats()
	}
	atZero, later := run(0), run(1_000_000)
	if atZero.Utilization != 0.125 || atZero.MakespanCycles != 10_000 {
		t.Fatalf("started at t=0: utilization %v, makespan %d; want 0.125, 10000", atZero.Utilization, atZero.MakespanCycles)
	}
	if later != atZero {
		t.Fatalf("started at t=1000000: %+v\nstarted at t=0: %+v", later, atZero)
	}
}
