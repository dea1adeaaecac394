package dragonfly_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dragonfly"
	"dragonfly/internal/testutil"
	"dragonfly/internal/workloads"
)

// compareSystem builds the Compare test fixture: an 8-node job next to
// background noise on a four-group machine.
func compareSystem(t *testing.T, seed int64) (*dragonfly.System, *dragonfly.Job) {
	t.Helper()
	sys, err := dragonfly.New(
		dragonfly.WithGeometry(dragonfly.SmallGeometry(4)),
		dragonfly.WithSeed(seed),
	)
	if err != nil {
		t.Fatal(err)
	}
	job, err := sys.Allocate(dragonfly.GroupStriped, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sys.StartNoise(dragonfly.NoiseConfig{Pattern: dragonfly.NoiseUniform, Nodes: 8}) == nil {
		t.Fatal("no room for the background job")
	}
	return sys, job
}

func compareWorkload() dragonfly.Workload {
	return &workloads.Alltoall{MessageBytes: 2 << 10, Iterations: 1}
}

// TestCompareSingleSetupMatchesJobRun pins that a one-setup Compare is Job.Run:
// identical Results on identically built systems, selector statistics
// included.
func TestCompareSingleSetupMatchesJobRun(t *testing.T) {
	_, jobA := compareSystem(t, 4)
	run, err := jobA.Run(compareWorkload(), dragonfly.RunOptions{Routing: dragonfly.AppAware(), Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, jobB := compareSystem(t, 4)
	cmp, err := jobB.Compare(compareWorkload(), []dragonfly.Routing{dragonfly.AppAware()},
		dragonfly.RunOptions{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp) != 1 {
		t.Fatalf("Compare returned %d results, want 1", len(cmp))
	}
	if !reflect.DeepEqual(run, cmp[0]) {
		t.Fatalf("Job.Run and one-setup Compare disagree:\n%+v\n%+v", run, cmp[0])
	}
	if len(run.Times) != 3 || !run.HasSelectorStats {
		t.Fatalf("run measured %d iterations (selector stats %v), want 3 with stats",
			len(run.Times), run.HasSelectorStats)
	}
}

// tagLog records, for every setup index, how often its provider was built
// and how many messages it routed, plus the order in which setups routed
// messages (consecutive repeats collapsed).
type tagLog struct {
	order          []int
	builds, routed []int
}

// wrap tags every provider of r with setup index k.
func (l *tagLog) wrap(k int, r dragonfly.Routing) dragonfly.Routing {
	inner := r.Provider
	r.Provider = func(rank int) dragonfly.RoutingProvider {
		l.builds[k]++
		return tagProvider{log: l, k: k, inner: inner(rank)}
	}
	return r
}

type tagProvider struct {
	log   *tagLog
	k     int
	inner dragonfly.RoutingProvider
}

func (p tagProvider) SelectMode(size int64, kind dragonfly.TrafficKind) (dragonfly.Mode, int64, func(dragonfly.Delivery)) {
	l := p.log
	l.routed[p.k]++
	if n := len(l.order); n == 0 || l.order[n-1] != p.k {
		l.order = append(l.order, p.k)
	}
	return p.inner.SelectMode(size, kind)
}

// TestCompareAlternatesSetups checks the measurement loop itself: iteration i
// runs setup 0, 1, 2 back to back (so the setups route messages in the order
// 0,1,2,0,1,2,...), each setup's providers are built once per rank, AppAware
// statistics accumulate over all of its iterations, and the setups' windows
// tile the simulated time and the router-tile traffic of the whole call.
func TestCompareAlternatesSetups(t *testing.T) {
	const iters = 3
	sys, job := compareSystem(t, 7)
	log := &tagLog{builds: make([]int, 3), routed: make([]int, 3)}
	setups := []dragonfly.Routing{
		log.wrap(0, dragonfly.StaticRouting(dragonfly.Adaptive)),
		log.wrap(1, dragonfly.AppAware()),
		log.wrap(2, dragonfly.StaticRouting(dragonfly.AdaptiveHighBias)),
	}
	routers := job.Allocation().Routers()
	flits0, stalled0 := sys.Fabric().IncomingFlits(routers)
	start := sys.Now()
	res, err := job.Compare(compareWorkload(), setups, dragonfly.RunOptions{Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	flits1, stalled1 := sys.Fabric().IncomingFlits(routers)

	var want []int
	for i := 0; i < iters; i++ {
		want = append(want, 0, 1, 2)
	}
	if !reflect.DeepEqual(log.order, want) {
		t.Fatalf("setups routed in order %v, want %v", log.order, want)
	}
	for k, n := range log.builds {
		if n != job.Size() {
			t.Fatalf("setup %d providers built %d times, want once per rank (%d)", k, n, job.Size())
		}
	}
	if len(res) != len(setups) {
		t.Fatalf("Compare returned %d results, want %d", len(res), len(setups))
	}
	var total dragonfly.Result
	for k, r := range res {
		if r.Setup != setups[k].Name {
			t.Fatalf("result %d is setup %q, want %q", k, r.Setup, setups[k].Name)
		}
		if len(r.Times) != iters || len(r.Deltas) != iters {
			t.Fatalf("setup %d: %d times / %d deltas, want %d", k, len(r.Times), len(r.Deltas), iters)
		}
		if r.TileFlits == 0 {
			t.Fatalf("setup %d: no router-tile traffic", k)
		}
		total.Times = append(total.Times, r.Times...)
		total.TileFlits += r.TileFlits
		total.TileStalled += r.TileStalled
	}
	aa := res[1]
	if !aa.HasSelectorStats || aa.SelectorStats.Messages != uint64(log.routed[1]) {
		t.Fatalf("AppAware stats count %d messages (has stats %v), want all %d of its iterations",
			aa.SelectorStats.Messages, aa.HasSelectorStats, log.routed[1])
	}
	if res[0].HasSelectorStats {
		t.Fatal("static setup reports selector statistics")
	}
	if got, want := total.Time(), sys.Now()-start; got != want {
		t.Fatalf("setup times sum to %d cycles, the call took %d", got, want)
	}
	if total.TileFlits != flits1-flits0 || total.TileStalled != stalled1-stalled0 {
		t.Fatalf("per-setup tile deltas sum to %d flits / %d stalled, window delta %d / %d",
			total.TileFlits, total.TileStalled, flits1-flits0, stalled1-stalled0)
	}
}

// TestCompareValidation covers the argument contract.
func TestCompareValidation(t *testing.T) {
	sys, job := compareSystem(t, 2)
	w := compareWorkload()
	setups := []dragonfly.Routing{dragonfly.DefaultRouting()}
	cases := []struct {
		name   string
		job    *dragonfly.Job
		w      dragonfly.Workload
		setups []dragonfly.Routing
		opts   dragonfly.RunOptions
		want   string
	}{
		{"no setups", job, w, nil, dragonfly.RunOptions{}, "at least one setup"},
		{"routing set", job, w, setups, dragonfly.RunOptions{Routing: dragonfly.AppAware()}, "must be zero"},
		{"nil workload", job, nil, setups, dragonfly.RunOptions{}, "nil workload"},
	}
	for _, c := range cases {
		if _, err := c.job.Compare(c.w, c.setups, c.opts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	if err := sys.Reset(2); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Compare(w, setups, dragonfly.RunOptions{}); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale job: err = %v", err)
	}
}

// TestCompareRankErrorNamesSetup: a rank that fails under one setup fails the
// call with an error naming that setup.
func TestCompareRankErrorNamesSetup(t *testing.T) {
	_, job := compareSystem(t, 3)
	bad := workloads.Func{WorkloadName: "bad-peer", Body: func(r *dragonfly.Rank) {
		r.Send(r.Size(), 8, 0) // no such peer
	}}
	high := dragonfly.StaticRouting(dragonfly.AdaptiveHighBias)
	_, err := job.Compare(bad, []dragonfly.Routing{high, dragonfly.DefaultRouting()}, dragonfly.RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "setup "+high.Name+": rank 0") {
		t.Fatalf("rank error = %v, want it to name setup %q", err, high.Name)
	}
}

// TestCompareCancelNoGoroutineLeak: a Compare cancelled mid-run returns the
// context error and releases every rank coroutine.
func TestCompareCancelNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	_, job := compareSystem(t, 24)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := job.Compare(compareWorkload(),
		[]dragonfly.Routing{dragonfly.DefaultRouting(), dragonfly.AppAware()},
		dragonfly.RunOptions{
			Iterations: 50,
			Context:    ctx,
			HostNoise: func(rank int) int64 {
				cancel() // fires on the scheduler goroutine during the first iteration
				return 0
			},
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Compare returned %v, want context.Canceled", err)
	}
	testutil.WaitGoroutines(t, base)
}
