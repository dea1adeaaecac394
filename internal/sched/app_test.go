package sched

import (
	"reflect"
	"runtime"
	"sort"
	"testing"

	"dragonfly/internal/mpi"
	"dragonfly/internal/sim"
	"dragonfly/internal/testutil"
	"dragonfly/internal/workloads"
)

func appJob(name string, nodes int, arrival, duration sim.Time, workload string) JobSpec {
	j := trafficJob(name, nodes, arrival, duration)
	j.App = &AppSpec{Workload: workload, MessageBytes: 2 << 10, Iterations: 2}
	return j
}

// TestAppJobRunsRealWorkload: with an executor attached, an App job runs its
// real application and finishes when the workload finishes — not at its
// (estimated) duration.
func TestAppJobRunsRealWorkload(t *testing.T) {
	f := testFabric(t, 2, 1)
	s := New(f, DefaultConfig())
	x := mpi.NewScheduler(f.Engine())
	defer x.Shutdown()
	s.AttachExecutor(x)
	rec := s.MustSubmit(appJob("app", 4, 0, 123_456_789, "alltoall"))
	s.Start()
	if err := s.Drive(nil); err != nil {
		t.Fatal(err)
	}
	if rec.State != Finished {
		t.Fatalf("job state = %v, want finished", rec.State)
	}
	if !rec.RanApp {
		t.Fatal("job did not run as a real application")
	}
	if rec.AppErr != nil {
		t.Fatalf("AppErr = %v", rec.AppErr)
	}
	if rec.AppCycles <= 0 {
		t.Fatalf("AppCycles = %d, want > 0", rec.AppCycles)
	}
	if rec.AppPackets == 0 {
		t.Fatal("application injected no packets")
	}
	if got := rec.FinishedAt - rec.StartedAt; got == 123_456_789 {
		t.Fatal("app job finished at its estimated duration instead of the workload's completion")
	}
	if st := s.Stats(); st.AppJobs != 1 || st.AppErrors != 0 {
		t.Fatalf("Stats AppJobs/AppErrors = %d/%d, want 1/0", st.AppJobs, st.AppErrors)
	}
}

// TestAppJobsAreDeterministic: the same seed reproduces the exact same
// schedule and per-job application measurements.
func TestAppJobsAreDeterministic(t *testing.T) {
	measure := func() []sim.Time {
		f := testFabric(t, 3, 9)
		s := New(f, Config{Placement: PlaceGroupStriped, Seed: 9})
		x := mpi.NewScheduler(f.Engine())
		defer x.Shutdown()
		s.AttachExecutor(x)
		s.MustSubmit(appJob("a", 4, 0, 1_000_000, "alltoall"))
		s.MustSubmit(appJob("b", 4, 5_000, 1_000_000, "halo3d"))
		s.MustSubmit(trafficJob("c", 4, 10_000, 500_000))
		s.Start()
		if err := s.Drive(nil); err != nil {
			t.Fatal(err)
		}
		var out []sim.Time
		for _, rec := range s.Jobs() {
			if rec.State != Finished {
				t.Fatalf("job %s state = %v, want finished", rec.Spec.Name, rec.State)
			}
			out = append(out, rec.StartedAt, rec.FinishedAt, rec.AppCycles, sim.Time(rec.AppPackets))
		}
		return out
	}
	if a, b := measure(), measure(); !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical scheduler runs diverged:\n%v\n%v", a, b)
	}
}

// TestDriveWithAppsNoGoroutineLeak: a Drive that completes its App jobs
// leaves no rank coroutine behind, idle or not — Drive shuts the executor down
// on every return, not only on cancellation.
func TestDriveWithAppsNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	f := testFabric(t, 3, 4)
	s := New(f, Config{Placement: PlaceGroupStriped, Seed: 4})
	x := mpi.NewScheduler(f.Engine())
	defer x.Shutdown()
	s.AttachExecutor(x)
	s.MustSubmit(appJob("a", 4, 0, 1_000_000, "alltoall"))
	s.MustSubmit(appJob("b", 4, 5_000, 1_000_000, "allreduce"))
	s.Start()
	if err := s.Drive(nil); err != nil {
		t.Fatal(err)
	}
	for _, rec := range s.Jobs() {
		if rec.State != Finished || !rec.RanApp {
			t.Fatalf("job %s: state %v, ran app %v", rec.Spec.Name, rec.State, rec.RanApp)
		}
	}
	if x.Idle() != 0 || x.Live() != 0 {
		t.Fatalf("after Drive: %d idle coroutines, %d live ranks; want 0, 0", x.Idle(), x.Live())
	}
	testutil.WaitGoroutines(t, base)
}

// TestAppStreamPoolBoundedByPeak: across a stream of App jobs the executor
// creates coroutines only up to the peak number of concurrently live ranks,
// not one per rank started.
func TestAppStreamPoolBoundedByPeak(t *testing.T) {
	f := testFabric(t, 3, 6)
	s := New(f, Config{Placement: PlaceGroupStriped, Seed: 6})
	x := mpi.NewScheduler(f.Engine())
	defer x.Shutdown()
	s.AttachExecutor(x)
	names := []string{"alltoall", "allreduce"}
	for i := 0; i < 8; i++ {
		s.MustSubmit(appJob(names[i%2]+string(rune('a'+i)), 4, sim.Time(i)*200_000, 1_000_000, names[i%2]))
	}
	s.Start()
	if err := x.Drain(nil); err != nil {
		t.Fatal(err)
	}
	// The peak of concurrently running App ranks, from the job intervals (a
	// job ending at t frees its ranks before one starting at t needs them).
	// Ranks of a job finish one by one, so this bounds the live count from
	// above.
	type edge struct {
		at    sim.Time
		delta int
	}
	var edges []edge
	started := 0
	for _, rec := range s.Jobs() {
		if rec.State != Finished || !rec.RanApp {
			t.Fatalf("job %s: state %v, ran app %v", rec.Spec.Name, rec.State, rec.RanApp)
		}
		started += rec.Spec.Nodes
		edges = append(edges, edge{rec.StartedAt, rec.Spec.Nodes}, edge{rec.FinishedAt, -rec.Spec.Nodes})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	peak, live := 0, 0
	for _, e := range edges {
		live += e.delta
		peak = max(peak, live)
	}
	if x.Idle() > peak || x.Idle() < 4 {
		t.Fatalf("%d idle coroutines, want between one job's 4 and the peak of %d live ranks", x.Idle(), peak)
	}
	if peak >= started {
		t.Fatalf("the jobs never ran one after another (peak %d of %d ranks): the stream does not exercise reuse", peak, started)
	}
}

// TestAppJobFallsBackWithoutExecutor: App jobs degrade to the synthetic
// generator when no executor is attached, and the degradation is recorded
// instead of silent.
func TestAppJobFallsBackWithoutExecutor(t *testing.T) {
	f := testFabric(t, 2, 1)
	s := New(f, DefaultConfig())
	rec := s.MustSubmit(appJob("app", 4, 0, 200_000, "alltoall"))
	s.Start()
	if err := s.Drive(nil); err != nil {
		t.Fatal(err)
	}
	if rec.State != Finished {
		t.Fatalf("job state = %v, want finished", rec.State)
	}
	if rec.RanApp {
		t.Fatal("job claims to have run a real application without an executor")
	}
	if rec.AppErr == nil {
		t.Fatal("fallback to synthetic traffic was not recorded")
	}
	if rec.MessagesSent == 0 {
		t.Fatal("fallback generator sent nothing")
	}
	if got := rec.FinishedAt - rec.StartedAt; got != 200_000 {
		t.Fatalf("fallback job ran %d cycles, want its duration of 200000", got)
	}
}

// TestAppJobUnknownWorkloadFallsBack: an unresolvable workload name is
// recorded on the record and the job still completes on the generator path.
func TestAppJobUnknownWorkloadFallsBack(t *testing.T) {
	f := testFabric(t, 2, 1)
	s := New(f, DefaultConfig())
	x := mpi.NewScheduler(f.Engine())
	defer x.Shutdown()
	s.AttachExecutor(x)
	rec := s.MustSubmit(appJob("app", 4, 0, 200_000, "no-such-workload"))
	s.Start()
	if err := s.Drive(nil); err != nil {
		t.Fatal(err)
	}
	if rec.State != Finished {
		t.Fatalf("job state = %v, want finished", rec.State)
	}
	if rec.RanApp || rec.AppErr == nil {
		t.Fatalf("RanApp/AppErr = %v/%v, want false/non-nil", rec.RanApp, rec.AppErr)
	}
	if st := s.Stats(); st.AppErrors != 1 {
		t.Fatalf("Stats.AppErrors = %d, want 1", st.AppErrors)
	}
}

// TestMixAppFraction: GenerateMix marks roughly the requested share of jobs
// as app jobs, cycles the workload list deterministically, and an
// AppFraction of zero reproduces the historical mix byte-for-byte.
func TestMixAppFraction(t *testing.T) {
	base := DefaultMixConfig()
	base.Jobs = 40

	withApps := base
	withApps.AppFraction = 1.0
	specs, err := GenerateMix(withApps, 64)
	if err != nil {
		t.Fatal(err)
	}
	apps := 0
	names := map[string]bool{}
	for _, sp := range specs {
		if sp.App != nil {
			apps++
			names[sp.App.Workload] = true
			if sp.App.Iterations < 1 {
				t.Fatalf("app job %s has %d iterations", sp.Name, sp.App.Iterations)
			}
		}
	}
	if apps == 0 {
		t.Fatal("AppFraction=1 produced no app jobs")
	}
	for _, want := range []string{"alltoall", "halo3d", "allreduce"} {
		if !names[want] {
			t.Fatalf("workload %q never used; got %v", want, names)
		}
	}

	// Zero AppFraction must not consume random numbers: the mix is identical
	// to the historical generator's output.
	a, err := GenerateMix(base, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateMix(base, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("mix generation is not deterministic")
	}
	for i := range a {
		if a[i].App != nil {
			t.Fatalf("job %d has an App spec despite AppFraction=0", i)
		}
	}
}

// TestStencilAppSizeIsDomainEdge: the mix maps stencil workloads to a sane
// domain edge instead of interpreting message bytes as an edge length.
func TestStencilAppSizeIsDomainEdge(t *testing.T) {
	if got := workloads.SizeFor("halo3d", 32<<10); got != 256 {
		t.Fatalf("SizeFor(halo3d) = %d, want 256", got)
	}
	if got := workloads.SizeFor("alltoall", 32<<10); got != 32<<10 {
		t.Fatalf("SizeFor(alltoall) = %d, want %d", got, 32<<10)
	}
}
