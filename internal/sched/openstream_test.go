package sched

import (
	"fmt"
	"testing"

	"dragonfly/internal/arrival"
	"dragonfly/internal/noise"
)

func openSpec(meanGap int64) arrival.Spec {
	return arrival.Spec{Clients: arrival.DefaultClients(3, meanGap)}.Normalize()
}

func TestOpenStreamDrains(t *testing.T) {
	f := testFabric(t, 4, 1)
	o, err := NewOpenStream(f, openSpec(40_000), OpenConfig{
		Placement:    PlaceContiguous,
		Seed:         7,
		MaxJobEvents: 2_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	o.Start()
	if err := o.Drive(nil); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.Admitted != 2_000 || st.Started != st.Admitted || st.Finished != st.Admitted {
		t.Fatalf("pipeline did not drain: %+v", st)
	}
	if st.Utilization <= 0 || st.Utilization > 1 {
		t.Fatalf("utilization %v out of (0, 1]", st.Utilization)
	}
	if st.JainFairness <= 0 || st.JainFairness > 1+1e-12 {
		t.Fatalf("Jain index %v out of (0, 1]", st.JainFairness)
	}
	var done int64
	for c := 0; c < arrival.NumClasses; c++ {
		cs := st.Classes[c]
		done += cs.Finished
		if cs.Finished > 0 && cs.Slowdown.Min < 1 {
			t.Fatalf("class %v min slowdown %v < 1", arrival.Class(c), cs.Slowdown.Min)
		}
		if cs.ViolationFrac < 0 || cs.ViolationFrac > 1 {
			t.Fatalf("class %v violation fraction %v out of [0, 1]", arrival.Class(c), cs.ViolationFrac)
		}
	}
	if done != int64(st.Finished) {
		t.Fatalf("class counts sum to %d, finished %d", done, st.Finished)
	}
	if arrival.BestEffort.TargetSlowdown() < st.Classes[arrival.BestEffort].Slowdown.Max {
		t.Fatalf("best-effort target should be unbounded")
	}
	if st.Fragmentation.N == 0 {
		t.Fatalf("fragmentation was never sampled")
	}
}

func TestOpenStreamHorizonCut(t *testing.T) {
	f := testFabric(t, 2, 1)
	const horizon = 5_000_000
	o, err := NewOpenStream(f, openSpec(50_000), OpenConfig{
		Placement:     PlaceGroupStriped,
		Seed:          3,
		HorizonCycles: horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	o.Start()
	if err := o.Drive(nil); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.Admitted == 0 {
		t.Fatalf("horizon run admitted nothing")
	}
	if st.Finished != st.Admitted {
		t.Fatalf("admitted jobs must drain past the horizon: %+v", st)
	}
	// ~3 clients x horizon/meanGap arrivals expected; sanity-bound it.
	if st.Admitted < 100 || st.Admitted > 3*horizon/50_000+50 {
		t.Fatalf("admitted %d jobs, outside plausible range", st.Admitted)
	}
}

func TestOpenStreamDeterminism(t *testing.T) {
	run := func() string {
		f := testFabric(t, 4, 9)
		o, err := NewOpenStream(f, openSpec(30_000), OpenConfig{
			Placement:    PlaceRandom,
			Seed:         11,
			MaxJobEvents: 1_500,
			Traffic: TrafficSpec{
				Pattern:        noise.UniformRandom,
				MessageBytes:   1 << 10,
				IntervalCycles: 100_000,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		o.Start()
		if err := o.Drive(nil); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", o.Stats())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical seeds diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestOpenStreamRequiresBound(t *testing.T) {
	f := testFabric(t, 2, 1)
	if _, err := NewOpenStream(f, openSpec(50_000), OpenConfig{}); err == nil {
		t.Fatalf("unbounded open stream was accepted")
	}
}

// TestOpenStreamRejectsTrafficWithoutInterval: stream jobs skip
// JobSpec.Validate, so the stream checks its traffic once up front.
func TestOpenStreamRejectsTrafficWithoutInterval(t *testing.T) {
	f := testFabric(t, 2, 1)
	cfg := OpenConfig{MaxJobEvents: 10, Traffic: TrafficSpec{MessageBytes: 512}}
	if _, err := NewOpenStream(f, openSpec(50_000), cfg); err == nil {
		t.Fatal("open stream with traffic but no interval was accepted")
	}
}

// TestOpenStreamSlotRecycling checks the stream's scheduler recycles its job
// records: the record arena tracks peak concurrency, not total job count, so
// thousands of jobs must churn through a bounded set of records.
func TestOpenStreamSlotRecycling(t *testing.T) {
	f := testFabric(t, 2, 1)
	o, err := NewOpenStream(f, openSpec(80_000), OpenConfig{
		Placement:    PlaceContiguous,
		Seed:         5,
		MaxJobEvents: 5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	o.Start()
	if err := o.Drive(nil); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.Finished != 5_000 {
		t.Fatalf("finished %d, want 5000", st.Finished)
	}
	if len(o.s.jobs) > st.MaxQueueLength+5_000/10 {
		// The arena may exceed peak queue length by peak running jobs, but it
		// must be nowhere near the total job count.
		t.Fatalf("record arena grew to %d for %d jobs (max queue %d) — records are not recycled",
			len(o.s.jobs), st.Finished, st.MaxQueueLength)
	}
	if o.s.FreeNodes() != f.Topology().NumNodes() {
		t.Fatalf("machine did not drain: %d/%d free", o.s.FreeNodes(), f.Topology().NumNodes())
	}
}

// TestOpenStreamClassAccounting checks the per-class accounting on a loaded
// machine with a latency and a batch client: both classes finish jobs, the
// unconfigured best-effort class finishes none, mean waits are non-negative
// and the makespan is positive.
func TestOpenStreamClassAccounting(t *testing.T) {
	f := testFabric(t, 4, 2)
	spec := arrival.Spec{Clients: []arrival.Client{
		{Class: arrival.Latency, Dist: arrival.Poisson, MeanInterarrivalCycles: 30_000,
			MinNodes: 1, MaxNodes: 2, MinDurationCycles: 50_000, MaxDurationCycles: 100_000},
		{Class: arrival.Batch, Dist: arrival.Gamma, Shape: 2, MeanInterarrivalCycles: 60_000,
			MinNodes: 8, MaxNodes: 16, MinDurationCycles: 200_000, MaxDurationCycles: 800_000},
	}}.Normalize()
	o, err := NewOpenStream(f, spec, OpenConfig{
		Placement:    PlaceContiguous,
		Seed:         13,
		MaxJobEvents: 3_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	o.Start()
	if err := o.Drive(nil); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	lat, bat := st.Classes[arrival.Latency], st.Classes[arrival.Batch]
	if lat.Finished == 0 || bat.Finished == 0 {
		t.Fatalf("both classes must finish jobs: %+v / %+v", lat, bat)
	}
	if st.Classes[arrival.BestEffort].Finished != 0 {
		t.Fatalf("no best-effort client was configured but %d finished", st.Classes[arrival.BestEffort].Finished)
	}
	if lat.WaitCycles.Mean < 0 || bat.WaitCycles.Mean < 0 {
		t.Fatalf("negative mean wait: %+v / %+v", lat, bat)
	}
	if st.MakespanCycles <= 0 {
		t.Fatalf("makespan %d", st.MakespanCycles)
	}
}
