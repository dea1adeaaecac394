package sched

import (
	"fmt"
	"slices"
	"testing"

	"dragonfly/internal/noise"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// fuzzBytes decodes a fuzz input one byte at a time; an exhausted input
// reads as zeros.
type fuzzBytes []byte

func (d *fuzzBytes) next() int {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return int(b)
}

// FuzzSchedule runs the one Scheduler core against the reference scheduler
// (reference_test.go) on two fresh fabrics started at t=0. The input decodes
// a batch run: 2–4 groups, a placement, backfill on or off, up to 4 reserved
// nodes and 1–12 jobs (size, arrival, duration, communication-intensive,
// traffic on or off). Both sides must produce the same per-job start and
// finish times, node sets and messages, the same Stats, and the same fabric
// packet count.
func FuzzSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzBytes(data)
		fuzzBatch(t, &d)
	})
}

func fuzzBatch(t *testing.T, d *fuzzBytes) {
	groups := 2 + d.next()%3
	cfg := Config{Placement: AllocationPolicy(d.next() % 4), Backfill: d.next()%2 == 1, Seed: int64(d.next())}
	f, g := testFabric(t, groups, 1), testFabric(t, groups, 1)
	s, ref := New(f, cfg), newRefScheduler(g, cfg)
	var reserved []topo.NodeID
	for n := d.next() % 5; n > 0; n-- {
		reserved = append(reserved, topo.NodeID(d.next()%f.Topology().NumNodes()))
	}
	s.Reserve(reserved)
	ref.Reserve(reserved)

	var recs []*JobRecord
	var refs []*refJobRecord
	for n := 1 + d.next()%12; n > 0; n-- {
		spec := JobSpec{
			Name:           fmt.Sprintf("job-%d", len(recs)),
			Nodes:          1 + d.next()%32,
			ArrivalCycles:  sim.Time(d.next()) * 2_000,
			DurationCycles: sim.Time(1+d.next()) * 1_000,
		}
		flags := d.next()
		spec.CommIntensive = flags&1 != 0
		if flags&2 != 0 {
			spec.Traffic = TrafficSpec{
				Pattern:        []noise.Pattern{noise.UniformRandom, noise.AlltoallBully}[flags>>2&1],
				MessageBytes:   512,
				IntervalCycles: 40_000,
			}
		}
		rec, err := s.Submit(spec)
		refRec, refErr := ref.Submit(spec)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Submit(%+v): error %v, reference error %v", spec, err, refErr)
		}
		if err == nil {
			recs = append(recs, rec)
			refs = append(refs, refRec)
		}
	}
	s.Start()
	ref.Start()
	drain(t, f)
	drain(t, g)

	for i, rec := range recs {
		want := refs[i]
		routers, groups := s.Spans(rec)
		if rec.State != want.State || rec.SubmittedAt != want.SubmittedAt ||
			rec.StartedAt != want.StartedAt || rec.FinishedAt != want.FinishedAt ||
			rec.MessagesSent != want.MessagesSent ||
			routers != want.RoutersSpanned || groups != want.GroupsSpanned {
			t.Fatalf("job %d: got %v submitted %d started %d finished %d, %d messages, spans %d/%d\n"+
				"reference %v submitted %d started %d finished %d, %d messages, spans %d/%d",
				i, rec.State, rec.SubmittedAt, rec.StartedAt, rec.FinishedAt, rec.MessagesSent, routers, groups,
				want.State, want.SubmittedAt, want.StartedAt, want.FinishedAt, want.MessagesSent,
				want.RoutersSpanned, want.GroupsSpanned)
		}
		if !slices.Equal(rec.Nodes, want.Allocation.Nodes()) {
			t.Fatalf("job %d placed on %v, reference %v", i, rec.Nodes, want.Allocation.Nodes())
		}
	}
	if got, want := s.Stats(), ref.Stats(); got != want {
		t.Fatalf("stats %+v\nreference %+v", got, want)
	}
	if got, want := f.PacketsInjected(), g.PacketsInjected(); got != want {
		t.Fatalf("%d packets injected, reference %d", got, want)
	}
}
