package main

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"dragonfly"
	"dragonfly/internal/msglog"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// costSink keeps isolated PathCost calls from being optimized away.
var costSink int64

// isolate times each layer's public entry points from outside, replaying what
// the traced trials recorded, and sets the per-call metrics:
//
//   - topo.SamplePathsInto, Policy.Route (against an idle routing.ZeroView)
//     and routing.PathCost over every recorded message's router pair;
//   - msglog.Replay of each trial's deliveries on an identically built
//     System, then Engine.Run, per injected packet;
//   - a no-op handler cycled through Engine.ScheduleCall at the event count
//     of the trial's unobserved twin in plain;
//   - the MPI layer as Job.Run time minus replay time, per message.
func isolate(o *outcome, spec *simSpec, ts, plain []trial) error {
	sys, err := dragonfly.New(spec.options(ts[0].seed)...)
	if err != nil {
		return err
	}
	t := sys.Topology()
	pol, err := routing.NewPolicy(t, routing.DefaultParams())
	if err != nil {
		return err
	}
	params := pol.Params()
	view := routing.ZeroView{Propagation: 100, CyclesPerFlit: 1}
	var buf topo.PathBuffer
	var sampleNS, routeNS, costNS, replayNS, dispatchNS, mpiNS time.Duration
	var calls, replayPkts, events, msgs uint64
	for k, tr := range ts {
		rng := rand.New(rand.NewSource(tr.seed))
		pairs := routerPairs(t, tr.records)
		calls += uint64(len(pairs))

		start := time.Now()
		for _, p := range pairs {
			t.SamplePathsInto(&buf, p[0], p[1], params.MinimalCandidates, params.NonMinimalCandidates, rng)
		}
		sampleNS += time.Since(start)

		start = time.Now()
		for _, p := range pairs {
			pol.Route(routing.Adaptive, p[0], p[1], 5, 0, view, 0, rng)
		}
		routeNS += time.Since(start)

		paths := make([]topo.Path, len(pairs))
		for i, p := range pairs {
			paths[i] = t.MinimalPath(p[0], p[1], rng)
		}
		start = time.Now()
		for _, p := range paths {
			costSink += routing.PathCost(p, 5, view, 0)
		}
		costNS += time.Since(start)

		replay, pkts, err := replayTrial(sys, tr)
		if err != nil {
			return err
		}
		replayNS += replay
		replayPkts += pkts
		mpiNS += tr.run - replay
		msgs += uint64(len(tr.records))

		dispatchNS += timeDispatch(plain[k].events)
		events += plain[k].events
	}
	o.set("topo.sample_paths_ns", "ns", perCall(sampleNS, calls))
	o.set("routing.route_ns", "ns", perCall(routeNS, calls))
	o.set("routing.path_cost_ns", "ns", perCall(costNS, calls))
	o.set("network.replay_ns_per_pkt", "ns", perCall(replayNS, replayPkts))
	o.set("sim.dispatch_ns", "ns", perCall(dispatchNS, events))
	o.set("mpi.overhead_ns_per_msg", "ns", perCall(mpiNS, msgs))
	return nil
}

func perCall(d time.Duration, n uint64) float64 { return float64(d.Nanoseconds()) / float64(max(n, 1)) }

// routerPairs returns the (source, destination) router of every record that
// leaves its router; Route returns early for the rest.
func routerPairs(t *topo.Topology, recs []msglog.Record) [][2]topo.RouterID {
	out := make([][2]topo.RouterID, 0, len(recs))
	for _, r := range recs {
		s, d := t.RouterOfNode(r.Src), t.RouterOfNode(r.Dst)
		if s != d {
			out = append(out, [2]topo.RouterID{s, d})
		}
	}
	return out
}

// replayTrial replays a traced trial's deliveries as an open-loop source on
// sys, reset to the trial's seed, and returns the wall time of Replay plus
// Engine.Run and the packets injected. msglog.Replay offsets every send from
// records[0].SendStart and clamps earlier sends to the start, so the records,
// which arrive in delivery order, are first sorted by SendStart.
func replayTrial(sys *dragonfly.System, tr trial) (time.Duration, uint64, error) {
	if err := sys.Reset(tr.seed); err != nil {
		return 0, 0, err
	}
	recs := slices.Clone(tr.records)
	slices.SortStableFunc(recs, func(a, b msglog.Record) int { return cmp.Compare(a.SendStart, b.SendStart) })
	start := time.Now()
	if _, err := msglog.Replay(sys.Fabric(), recs, msglog.ReplayOptions{Mode: routing.Adaptive}); err != nil {
		return 0, 0, err
	}
	if err := sys.Engine().Run(); err != nil {
		return 0, 0, err
	}
	return time.Since(start), sys.Fabric().PacketsInjected(), nil
}

// dispatchProbe is a no-op event handler that reschedules itself, gap cycles
// ahead, until left reaches zero.
type dispatchProbe struct{ left uint64 }

func (p *dispatchProbe) HandleEvent(e *sim.Engine, gap, _ int64) {
	if p.left > 0 {
		p.left--
		e.ScheduleCall(e.Now()+gap, p, gap, 0)
	}
}

// timeDispatch times the engine executing n no-op events with a queue of
// dispatchDepth pending events.
func timeDispatch(n uint64) time.Duration {
	const dispatchDepth = 64
	e := sim.NewEngine(1)
	p := &dispatchProbe{left: n - min(n, dispatchDepth)}
	for gap := int64(1); gap <= dispatchDepth; gap++ {
		e.ScheduleCall(0, p, gap, 0)
	}
	start := time.Now()
	_ = e.Run() // no event limit is set, so Run cannot fail
	return time.Since(start)
}
