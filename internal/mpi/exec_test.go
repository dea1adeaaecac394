package mpi

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"dragonfly/internal/alloc"
	"dragonfly/internal/core"
	"dragonfly/internal/network"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/testutil"
	"dragonfly/internal/topo"
)

// execFixture builds a fabric plus two disjoint four-node allocations.
func execFixture(t testing.TB, seed int64) (*network.Fabric, *alloc.Allocation, *alloc.Allocation) {
	t.Helper()
	tp, err := topo.New(topo.SmallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	pol, err := routing.NewPolicy(tp, routing.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(seed)
	fab, err := network.New(eng, tp, pol, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[topo.NodeID]bool)
	a, err := alloc.Allocate(tp, alloc.GroupStriped, 4, eng.Rand(), used)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range a.Nodes() {
		used[n] = true
	}
	b, err := alloc.Allocate(tp, alloc.GroupStriped, 4, eng.Rand(), used)
	if err != nil {
		t.Fatal(err)
	}
	return fab, a, b
}

// ringProgram sends around the communicator ring and records each rank's
// completion time.
func ringProgram(times []sim.Time) func(*Rank) {
	return func(r *Rank) {
		next := (r.Rank() + 1) % r.Size()
		prev := (r.Rank() + r.Size() - 1) % r.Size()
		for i := 0; i < 3; i++ {
			r.SendRecv(next, 2048, prev, core.PointToPoint)
		}
		times[r.Rank()] = r.Now()
	}
}

// TestSchedulerInterleavesTwoComms: two communicators co-run on one shared
// scheduler, both finish, and the interleaving is deterministic — the same
// seed yields the exact same per-rank completion times on a rebuilt fabric.
func TestSchedulerInterleavesTwoComms(t *testing.T) {
	measure := func() ([]sim.Time, []sim.Time, sim.Time, sim.Time) {
		fab, a, b := execFixture(t, 42)
		s := NewScheduler(fab.Engine())
		defer s.Shutdown()
		ca := MustNewComm(fab, a, Config{})
		cb := MustNewComm(fab, b, Config{})
		ta := make([]sim.Time, a.Size())
		tb := make([]sim.Time, b.Size())
		if err := ca.Start(s, ringProgram(ta)); err != nil {
			t.Fatal(err)
		}
		if err := cb.Start(s, ringProgram(tb)); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(nil); err != nil {
			t.Fatal(err)
		}
		if !ca.Finished() || !cb.Finished() {
			t.Fatal("scheduler returned with unfinished communicators")
		}
		return ta, tb, ca.FinishedAt(), cb.FinishedAt()
	}
	ta1, tb1, fa1, fb1 := measure()
	ta2, tb2, fa2, fb2 := measure()
	if !reflect.DeepEqual(ta1, ta2) || !reflect.DeepEqual(tb1, tb2) {
		t.Fatalf("concurrent interleaving is not deterministic:\n%v vs %v\n%v vs %v", ta1, ta2, tb1, tb2)
	}
	if fa1 != fa2 || fb1 != fb2 {
		t.Fatalf("finish times differ across repeats: %d/%d vs %d/%d", fa1, fb1, fa2, fb2)
	}
	for r, ts := range ta1 {
		if ts <= 0 {
			t.Fatalf("comm A rank %d finished at time %d", r, ts)
		}
	}
}

// TestSchedulerSharedVsPrivate: a communicator co-run with a neighbor takes
// longer (in simulated time) than the same communicator alone — the whole
// point of replacing synthetic stand-ins with real co-tenants.
func TestSchedulerSharedVsPrivate(t *testing.T) {
	alone := func() sim.Time {
		fab, a, _ := execFixture(t, 7)
		ca := MustNewComm(fab, a, Config{})
		ta := make([]sim.Time, a.Size())
		if err := ca.Run(ringProgram(ta)); err != nil {
			t.Fatal(err)
		}
		return ca.FinishedAt()
	}()
	shared := func() sim.Time {
		fab, a, b := execFixture(t, 7)
		s := NewScheduler(fab.Engine())
		defer s.Shutdown()
		ca := MustNewComm(fab, a, Config{})
		cb := MustNewComm(fab, b, Config{})
		ta := make([]sim.Time, a.Size())
		tb := make([]sim.Time, b.Size())
		if err := ca.Start(s, ringProgram(ta)); err != nil {
			t.Fatal(err)
		}
		if err := cb.Start(s, ringProgram(tb)); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(nil); err != nil {
			t.Fatal(err)
		}
		return ca.FinishedAt()
	}()
	if shared < alone {
		t.Fatalf("co-running finished earlier than running alone: %d vs %d", shared, alone)
	}
}

// TestStartWhileRunningFails: restarting a communicator with unfinished ranks
// is a loud error, not silent corruption.
func TestStartWhileRunningFails(t *testing.T) {
	fab, a, _ := execFixture(t, 1)
	s := NewScheduler(fab.Engine())
	defer s.Shutdown()
	c := MustNewComm(fab, a, Config{})
	started := false
	if err := c.Start(s, func(r *Rank) {
		if r.Rank() == 0 && !started {
			started = true
			if err := c.Start(s, func(*Rank) {}); err == nil {
				t.Error("Start on a running communicator succeeded")
			}
		}
		r.Compute(10)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
}

// TestOnFinishedChainsPrograms: the OnFinished hook can Start the next
// program, which is how the facade chains measurement iterations.
func TestOnFinishedChainsPrograms(t *testing.T) {
	fab, a, _ := execFixture(t, 1)
	s := NewScheduler(fab.Engine())
	defer s.Shutdown()
	c := MustNewComm(fab, a, Config{})
	rounds := 0
	var boundaries []sim.Time
	c.OnFinished(func() {
		boundaries = append(boundaries, c.FinishedAt())
		if rounds++; rounds < 3 {
			if err := c.Start(s, func(r *Rank) { r.Compute(100) }); err != nil {
				t.Error(err)
			}
		}
	})
	if err := c.Start(s, func(r *Rank) { r.Compute(100) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	if rounds != 3 {
		t.Fatalf("ran %d rounds, want 3", rounds)
	}
	if len(boundaries) != 3 || boundaries[0] != 100 || boundaries[1] != 200 || boundaries[2] != 300 {
		t.Fatalf("round boundaries = %v, want [100 200 300]", boundaries)
	}
}

// TestRunContextCancelled: cancellation interrupts a run that still has
// simulated work to do.
func TestRunContextCancelled(t *testing.T) {
	fab, a, _ := execFixture(t, 1)
	c := MustNewComm(fab, a, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.RunContext(ctx, func(r *Rank) { r.Compute(1000) }); err != context.Canceled {
		t.Fatalf("cancelled RunContext returned %v, want context.Canceled", err)
	}
}

// TestDrainRunsDynamicallyAttachedComms: Drain keeps executing events after
// the initial comms finish, so a communicator attached by a later engine
// event (a batch job arrival) still runs to completion.
func TestDrainRunsDynamicallyAttachedComms(t *testing.T) {
	fab, a, b := execFixture(t, 5)
	s := NewScheduler(fab.Engine())
	defer s.Shutdown()
	ca := MustNewComm(fab, a, Config{})
	ta := make([]sim.Time, a.Size())
	if err := ca.Start(s, ringProgram(ta)); err != nil {
		t.Fatal(err)
	}
	var late *Comm
	tb := make([]sim.Time, b.Size())
	fab.Engine().Schedule(1_000_000, func() {
		late = MustNewComm(fab, b, Config{})
		if err := late.Start(s, ringProgram(tb)); err != nil {
			t.Error(err)
		}
	})
	if err := s.Drain(nil); err != nil {
		t.Fatal(err)
	}
	if late == nil || !late.Finished() {
		t.Fatal("dynamically attached communicator did not run")
	}
	if late.FinishedAt() <= 1_000_000 {
		t.Fatalf("late communicator finished at %d, before it arrived", late.FinishedAt())
	}
}

// TestSchedulerShutdownReleasesParkedRanks pins Scheduler.Shutdown directly:
// a run abandoned by cancellation leaves every unfinished rank parked, and
// Shutdown releases them all (idempotently).
func TestSchedulerShutdownReleasesParkedRanks(t *testing.T) {
	base := runtime.NumGoroutine()
	fab, a, _ := execFixture(t, 31)
	comm := MustNewComm(fab, a, Config{})
	sched := NewScheduler(fab.Engine())
	defer sched.Shutdown()
	// Every rank blocks on a receive that never arrives; with no pending
	// events Run reports a deadlock and the ranks stay parked.
	if err := comm.Start(sched, func(r *Rank) { r.Recv(r.Rank()) }); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(nil); err == nil {
		t.Fatal("expected a deadlock error")
	}
	if sched.Live() != comm.Size() {
		t.Fatalf("expected %d parked ranks, got %d", comm.Size(), sched.Live())
	}
	sched.Shutdown()
	if sched.Live() != 0 {
		t.Fatalf("Shutdown left %d live ranks", sched.Live())
	}
	sched.Shutdown() // idempotent
	testutil.WaitGoroutines(t, base)
}

// TestSchedulerPanicReleasesParkedRanks is the panic half of the leak fix:
// when a panic escapes the drive loop (here from the check hook, standing in
// for an engine event callback blowing up) and a caller recovers it — as the
// trial harness does per trial — the unfinished ranks must still be
// released, not parked for the life of the process.
func TestSchedulerPanicReleasesParkedRanks(t *testing.T) {
	base := runtime.NumGoroutine()
	fab, a, _ := execFixture(t, 32)
	comm := MustNewComm(fab, a, Config{})
	sched := NewScheduler(fab.Engine())
	defer sched.Shutdown()
	if err := comm.Start(sched, func(r *Rank) { r.Recv(r.Rank()) }); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected the drive-loop panic to propagate")
			}
		}()
		_ = sched.Run(func() error { panic("event callback blew up") })
	}()
	if sched.Live() != 0 {
		t.Fatalf("panic unwind left %d live ranks", sched.Live())
	}
	testutil.WaitGoroutines(t, base)
}

// panicAfterCompute is a program whose rank 2 panics with boom after some
// simulated work, while every other rank is parked on a receive from it.
func panicAfterCompute(boom error) func(*Rank) {
	return func(r *Rank) {
		if r.Rank() != 2 {
			r.Recv(2)
			return
		}
		r.Compute(100)
		panic(boom)
	}
}

// recovered runs fn and returns the value it panicked with (nil if none).
func recovered(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestRankPanicReachesRun: a rank program's panic propagates out of
// Scheduler.Run on the caller's goroutine with the program's own value, and
// the other ranks, parked mid-program, are released on the way out, instead
// of the panic killing the process.
func TestRankPanicReachesRun(t *testing.T) {
	base := runtime.NumGoroutine()
	fab, a, _ := execFixture(t, 33)
	comm := MustNewComm(fab, a, Config{})
	sched := NewScheduler(fab.Engine())
	defer sched.Shutdown()
	boom := errors.New("rank program blew up")
	if err := comm.Start(sched, panicAfterCompute(boom)); err != nil {
		t.Fatal(err)
	}
	if got := recovered(func() { _ = sched.Run(nil) }); got != boom {
		t.Fatalf("Run panicked with %v, want %v", got, boom)
	}
	if sched.Live() != 0 || sched.Idle() != 0 {
		t.Fatalf("after the panic: %d live ranks, %d idle coroutines; want 0, 0", sched.Live(), sched.Idle())
	}
	testutil.WaitGoroutines(t, base)
}

// TestRankPanicReachesCommRun is the single-communicator path: Comm.Run's
// private scheduler propagates the panic the same way.
func TestRankPanicReachesCommRun(t *testing.T) {
	base := runtime.NumGoroutine()
	fab, a, _ := execFixture(t, 34)
	comm := MustNewComm(fab, a, Config{})
	boom := errors.New("rank program blew up")
	if got := recovered(func() { _ = comm.Run(panicAfterCompute(boom)) }); got != boom {
		t.Fatalf("Comm.Run panicked with %v, want %v", got, boom)
	}
	if comm.own.Live() != 0 {
		t.Fatalf("after the panic: %d live ranks, want 0", comm.own.Live())
	}
	testutil.WaitGoroutines(t, base)
}

// TestSchedulerPoolsCoroutines: programs started one after another on one
// scheduler reuse the coroutines of the programs that finished before them,
// so two 4-rank communicators run alternately three times need exactly 4.
func TestSchedulerPoolsCoroutines(t *testing.T) {
	fab, a, b := execFixture(t, 35)
	s := NewScheduler(fab.Engine())
	defer s.Shutdown()
	ca, cb := MustNewComm(fab, a, Config{}), MustNewComm(fab, b, Config{})
	times := make([]sim.Time, a.Size())
	for round := 0; round < 3; round++ {
		for _, c := range []*Comm{ca, cb} {
			if err := c.Start(s, ringProgram(times)); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(nil); err != nil {
				t.Fatal(err)
			}
			if !c.Finished() {
				t.Fatalf("round %d: communicator did not finish", round)
			}
		}
	}
	if s.Idle() != 4 || len(s.coros) != 4 {
		t.Fatalf("%d idle of %d coroutines, want 4 of 4", s.Idle(), len(s.coros))
	}
}

// TestShutdownEndsIdlePool: Shutdown ends the idle coroutines a completed run
// leaves parked, is idempotent, and leaves the scheduler usable.
func TestShutdownEndsIdlePool(t *testing.T) {
	base := runtime.NumGoroutine()
	fab, a, _ := execFixture(t, 36)
	s := NewScheduler(fab.Engine())
	defer s.Shutdown()
	c := MustNewComm(fab, a, Config{})
	run := func() {
		t.Helper()
		if err := c.Start(s, func(r *Rank) { r.Compute(10) }); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(nil); err != nil {
			t.Fatal(err)
		}
		if s.Idle() != c.Size() {
			t.Fatalf("completed run left %d idle coroutines, want %d", s.Idle(), c.Size())
		}
	}
	run()
	s.Shutdown()
	if s.Idle() != 0 || s.Live() != 0 {
		t.Fatalf("Shutdown left %d idle coroutines, %d live ranks", s.Idle(), s.Live())
	}
	s.Shutdown() // idempotent
	testutil.WaitGoroutines(t, base)
	run() // the next Start creates fresh coroutines
	s.Shutdown()
	testutil.WaitGoroutines(t, base)
}

// BenchmarkRankHandoff measures the rank handoff layer: one rank calls
// Compute(1) per op, so each op is one typed engine event plus one park and
// resume of the rank's coroutine. One untimed run warms the scheduler first:
// the coroutine is pooled and the runnable queue and event heap are at
// capacity, so a steady-state handoff must not allocate.
func BenchmarkRankHandoff(b *testing.B) {
	fab, a, _ := execFixture(b, 1)
	c := MustNewComm(fab, alloc.NewAllocation(fab.Topology(), a.Nodes()[:1]), Config{})
	s := NewScheduler(fab.Engine())
	defer s.Shutdown()
	ops := 100
	program := func(r *Rank) {
		for i := 0; i < ops; i++ {
			r.Compute(1)
		}
	}
	run := func() {
		if err := c.Start(s, program); err != nil {
			b.Fatal(err)
		}
		if err := s.Run(nil); err != nil {
			b.Fatal(err)
		}
	}
	run()
	ops = b.N
	b.ReportAllocs()
	b.ResetTimer()
	run()
}
