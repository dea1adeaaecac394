package dragonfly_test

import (
	"runtime"
	"testing"

	"dragonfly"
	"dragonfly/internal/arrival"
	"dragonfly/internal/sched"
)

// TestOpenStreamMillionEventsMemoryBudget is the open-stream acceptance test:
// a fixed-seed run on the full Daint geometry sustains one million simulated
// job events (compute-only jobs, so the fabric carries no packets) while the
// live heap stays flat — the scheduler recycles each finished job's record
// and every metric folds into fixed-size streaming digests, so memory is
// O(machine + peak concurrency), not O(horizon).
func TestOpenStreamMillionEventsMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("million-event horizon in -short mode")
	}
	sys, err := dragonfly.New(
		dragonfly.WithGeometry(dragonfly.Daint),
		dragonfly.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	spec := arrival.Spec{Clients: arrival.DefaultClients(6, 12_000)}.Normalize()
	o, err := sched.NewOpenStream(sys.Fabric(), spec, sched.OpenConfig{
		Placement:    sched.PlaceContiguous,
		Seed:         42,
		MaxJobEvents: 1_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	o.Start()
	if err := o.Drive(nil); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.Admitted != 1_000_000 || st.Finished != st.Admitted {
		t.Fatalf("run did not sustain the horizon: admitted %d, finished %d", st.Admitted, st.Finished)
	}
	if st.Utilization <= 0 || st.Utilization > 1 {
		t.Fatalf("utilization %v out of (0, 1]", st.Utilization)
	}
	if st.JainFairness <= 0 || st.JainFairness > 1+1e-12 {
		t.Fatalf("Jain index %v out of (0, 1]", st.JainFairness)
	}
	for c := 0; c < arrival.NumClasses; c++ {
		if st.Classes[c].Finished == 0 {
			t.Fatalf("class %v finished no jobs", arrival.Class(c))
		}
		if s := st.Classes[c].Slowdown; s.N == 0 || s.Min < 1 {
			t.Fatalf("class %v slowdown digest empty or below 1: %+v", arrival.Class(c), s)
		}
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// Without these the collection above frees the system and the stream,
	// and the budget would measure an empty heap.
	runtime.KeepAlive(sys)
	runtime.KeepAlive(o)
	t.Logf("1M job events on Daint: util %.2f, Jain %.3f, max queue %d, live heap %.2f MiB",
		st.Utilization, st.JainFairness, st.MaxQueueLength, float64(ms.HeapAlloc)/(1<<20))
	const budgetMiB = 96 // Daint fabric plus O(machine) scheduler state
	if got := ms.HeapAlloc >> 20; got > budgetMiB {
		t.Fatalf("open-stream run holds %d MiB live heap after 1M job events, budget %d MiB", got, budgetMiB)
	}
}
