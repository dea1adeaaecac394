package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"dragonfly"
	"dragonfly/internal/harness"
	"dragonfly/internal/msglog"
	"dragonfly/internal/network"
)

// trialSeed derives trial i's seed from the workload seed.
func trialSeed(seed int64, i int) int64 {
	return harness.TrialSeed(seed, fmt.Sprintf("trial-%d", i))
}

// simRunner runs the closed trial loop of one simulation workload on one
// System that every trial resets.
type simRunner struct {
	spec   *simSpec
	sys    *dragonfly.System
	victim []bool
}

// trial is what one simulation trial measured.
type trial struct {
	index int
	seed  int64
	wall  time.Duration
	// run is the wall time of Job.Run alone.
	run time.Duration
	res dragonfly.Result
	// packets and events are fabric-wide: victim plus background traffic.
	packets, events uint64
	// observed trials count the victim's deliveries and the request packets
	// those deliveries report.
	observed               bool
	victimMsgs, victimPkts uint64
	digest                 string
	err                    error

	// Filled by traced trials only.
	records     []msglog.Record
	selectCalls uint64
	selectTime  time.Duration
}

// newSimRunner builds the workload's machine with the first trial's seed.
func newSimRunner(spec *simSpec, seed int64) (*simRunner, error) {
	sys, err := dragonfly.New(spec.options(trialSeed(seed, 0))...)
	if err != nil {
		return nil, err
	}
	return &simRunner{spec: spec, sys: sys, victim: make([]bool, sys.Topology().NumNodes())}, nil
}

// run executes trial i. An observed trial watches the fabric's deliveries
// for the conservation checks. Timed end-to-end trials are not observed: a
// delivery observer makes the fabric schedule a completion event for every
// send, background traffic's included, which an ordinary Job.Run skips. With
// a non-nil tracer the trial is observed, records spans, captures the
// deliveries and times every routing decision of the victim's ranks.
func (r *simRunner) run(i int, seed int64, observe bool, tr *tracer) trial {
	t := trial{index: i, seed: seed, observed: observe || tr != nil}
	routing := r.spec.routing()
	var timer *selectTimer
	if tr != nil {
		timer = &selectTimer{}
		routing = timer.wrap(routing)
	}
	work := r.spec.workload()
	var log *msglog.Log

	start := time.Now()
	root := tr.begin("trial", i, -1)
	sp := tr.begin("dragonfly.Reset", i, root)
	err := r.sys.Reset(seed)
	tr.end(sp)
	if err != nil {
		t.err = err
		return t
	}
	sp = tr.begin("dragonfly.Allocate", i, root)
	job, err := r.sys.Allocate(r.spec.policy, r.spec.nodes)
	tr.end(sp)
	if err != nil {
		t.err = err
		return t
	}
	clear(r.victim)
	for _, n := range job.Nodes() {
		r.victim[n] = true
	}
	fab := r.sys.Fabric()
	if t.observed {
		fab.AddDeliveryObserver(func(d network.Delivery) {
			if r.victim[d.Src] {
				t.victimMsgs++
				t.victimPkts += d.Counters.RequestPackets
			}
		})
	}
	if tr != nil {
		log = msglog.NewLog()
		log.Attach(fab)
	}
	sp = tr.begin("dragonfly.Job.Run", i, root)
	runStart := time.Now()
	t.res, t.err = job.Run(work, dragonfly.RunOptions{Routing: routing})
	t.run = time.Since(runStart)
	tr.end(sp)
	if timer != nil {
		t.selectCalls, t.selectTime = timer.calls, timer.total
		tr.aggregate("core.SelectMode", i, sp, timer.calls, timer.total)
	}
	tr.end(root)
	t.wall = time.Since(start)

	t.packets = fab.PacketsInjected()
	t.events = r.sys.Engine().ExecutedEvents()
	if log != nil {
		t.records = log.Records()
	}
	if t.err == nil {
		t.err = r.check(&t)
	}
	t.digest = trialDigest(&t)
	return t
}

// check applies the conservation checks to a finished trial: the NIC-counter
// checks to every trial, the delivery checks to observed ones.
func (r *simRunner) check(t *trial) error {
	c := t.res.Counters
	switch {
	case t.observed && t.victimMsgs != r.spec.messages:
		return fmt.Errorf("trial %d: victim delivered %d messages, want %d", t.index, t.victimMsgs, r.spec.messages)
	case t.observed && t.victimPkts != c.RequestPackets:
		return fmt.Errorf("trial %d: victim deliveries report %d request packets, NIC counters %d",
			t.index, t.victimPkts, c.RequestPackets)
	case c.MinimalPackets+c.NonMinimalPackets != c.RequestPackets:
		return fmt.Errorf("trial %d: %d minimal + %d non-minimal packets != %d request packets",
			t.index, c.MinimalPackets, c.NonMinimalPackets, c.RequestPackets)
	case t.packets < c.RequestPackets:
		return fmt.Errorf("trial %d: fabric injected %d packets, fewer than the victim's %d",
			t.index, t.packets, c.RequestPackets)
	}
	return nil
}

// trialDigest hashes the simulated outputs of a trial: its seed, simulated
// cycles, the victim's NIC counters and selector statistics, and the
// injected-packet count. A change that only speeds the simulator up leaves it
// unchanged, and so does observing the trial.
func trialDigest(t *trial) string {
	c, s := t.res.Counters, t.res.SelectorStats
	var b []byte
	for _, v := range []uint64{
		uint64(t.seed), uint64(t.res.Time()),
		c.RequestFlits, c.RequestFlitsStalledCycles, c.RequestPackets,
		c.RequestPacketsCumLatency, c.MinimalPackets, c.NonMinimalPackets,
		s.Messages, s.Bytes, s.DefaultMessages, s.DefaultBytes, s.BiasMessages,
		s.BiasBytes, s.Evaluations, s.CounterReads, s.Switches,
		t.packets,
	} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// selectTimer wraps every rank's RoutingProvider to count and time SelectMode
// calls. Rank goroutines run one at a time under the cooperative scheduler,
// which orders their accesses, so the plain counters need no lock.
type selectTimer struct {
	calls uint64
	total time.Duration
}

// wrap returns r with every rank's provider timed.
func (st *selectTimer) wrap(r dragonfly.Routing) dragonfly.Routing {
	inner := r.Provider
	r.Provider = func(rank int) dragonfly.RoutingProvider {
		return timedProvider{inner: inner(rank), timer: st}
	}
	return r
}

type timedProvider struct {
	inner dragonfly.RoutingProvider
	timer *selectTimer
}

func (p timedProvider) SelectMode(size int64, kind dragonfly.TrafficKind) (dragonfly.Mode, int64, func(network.Delivery)) {
	start := time.Now()
	mode, overhead, observe := p.inner.SelectMode(size, kind)
	p.timer.total += time.Since(start)
	p.timer.calls++
	return mode, overhead, observe
}
