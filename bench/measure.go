package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"dragonfly"
	"dragonfly/internal/stats"
	"dragonfly/internal/topo"
)

const (
	// setupBuilds is how many builds setup_s takes the median of.
	setupBuilds = 21
	// minTrials keeps trial_s_p90 reportable: the 100th trial is the first
	// with ten samples beyond the 90th percentile.
	minTrials = 100
	// tracedTrials is the traced run's trial count, fixed so that its counts
	// repeat exactly; the same trial seeds also run untraced first, for
	// trace.overhead_frac.
	tracedTrials = 20
	// pinnedTrials is how many leading trial digests golden files pin.
	pinnedTrials = 20
	// outDir holds the traced run's spans and profiles.
	outDir = "out"
)

// digestKey names trial i in golden files.
func digestKey(i int) string { return fmt.Sprintf("trial-%d", i) }

// measureSim is the end-to-end run of a simulation workload: setup, one
// untimed warm-up trial, a closed loop of trials for cfg.seconds (and at
// least minTrials), then trial 0 again to check the System's Reset. The
// warm-up and the rerun are the run's observed trials.
func measureSim(name string, spec *simSpec, cfg runConfig) (*outcome, error) {
	o := newOutcome(cfg.stderr)
	setupCal, cal := &calibrator{}, &calibrator{}
	setup, err := timeNew([]dragonfly.Geometry{spec.geometry}, spec.options(trialSeed(cfg.seed, 0)), setupCal)
	if err != nil {
		return nil, err
	}
	r, err := newSimRunner(spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	warm := r.run(0, trialSeed(cfg.seed, 0), true, nil)

	var trials []trial
	var rss float64
	start := time.Now()
	for i := 0; ; i++ {
		if cfg.smoke && i == 2 || !cfg.smoke && i >= minTrials && time.Since(start) >= cfg.seconds {
			break
		}
		t := r.run(i, trialSeed(cfg.seed, i), false, nil)
		cal.sample()
		trials = append(trials, t)
		if len(trials) <= minTrials {
			// Live heap grows while lazily allocated NIC rings fill, so
			// the peak is taken over a fixed number of trials.
			if rss, err = peakRSSMiB(); err != nil {
				return nil, err
			}
		}
	}
	again := r.run(0, trialSeed(cfg.seed, 0), true, nil)

	if err := checkTrials(o, name, cfg, trials, warm, again); err != nil {
		return nil, err
	}
	walls := make([]float64, len(trials))
	var packets, total float64
	for i, t := range trials {
		walls[i] = t.wall.Seconds()
		total += walls[i]
		packets += float64(t.packets)
	}
	o.set("trial_s_p50", "s", stats.Median(walls))
	o.set("trial_s_p90", "s", stats.Percentile(walls, 90))
	o.set("work_per_s", "1/s", packets/total)
	o.set("setup_s", "s", setup)
	o.set("peak_rss_mib", "MiB", rss)
	o.scaleTimes(setupCal, cfg.raw, "setup_s")
	o.scaleTimes(cal, cfg.raw, "trial_s_p50", "trial_s_p90", "work_per_s")
	return o, nil
}

// checkTrials counts the trials as attempted and fails every one that
// errored or broke a conservation check, every digest that differs from the
// golden one, and the run when a repeat of trial 0 (the warm-up, and the
// rerun at the end) hashes differently from trial 0.
func checkTrials(o *outcome, name string, cfg runConfig, trials []trial, repeats ...trial) error {
	o.attempted += len(trials)
	digests := map[string]string{}
	for _, t := range trials {
		if t.err != nil {
			o.fail(t.err)
		}
		if t.index < pinnedTrials {
			digests[digestKey(t.index)] = t.digest
		}
	}
	for _, t := range repeats {
		if t.err != nil {
			o.fail(fmt.Errorf("repeat of trial 0: %w", t.err))
		} else if len(trials) > 0 && t.digest != trials[0].digest {
			o.fail(fmt.Errorf("repeat of trial 0 hashes %.12s…, trial 0 hashed %.12s…", t.digest, trials[0].digest))
		}
	}
	return verifyGolden(o, name, cfg, digests)
}

// runtimeCounters reads the runtime's cumulative GC CPU time, total CPU
// time and heap allocation.
type runtimeCounters struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeCounters{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// startProfile starts the CPU profile written to path; the returned
// function stops it.
func startProfile(path string) (func() error, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// traceSimWorkload is the traced run of a simulation workload: the
// trial-level layer metrics of traceTrials, with the CPU profile taken over
// the traced trials and folded per package.
func traceSimWorkload(name string, spec *simSpec, cfg runConfig) (*outcome, error) {
	o := newOutcome(cfg.stderr)
	tr := newTracer()
	profile := filepath.Join(outDir, "cpu_"+name+".pprof")
	if err := traceTrials(o, name, spec, cfg, tr, profile); err != nil {
		return nil, err
	}
	shares, err := profileShares(profile)
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		o.set(k, "ratio", v)
	}
	if err := setBuildTimes(o, []dragonfly.Geometry{spec.geometry}, spec.options(trialSeed(cfg.seed, 0))); err != nil {
		return nil, err
	}
	return o, tr.writeSpans(filepath.Join(outDir, "trace_"+name+".json"))
}

// timeBuilds returns the median wall time of setupBuilds calls of build,
// each after a full garbage collection and followed by a calibration sample.
func timeBuilds(build func() error, cal *calibrator) (float64, error) {
	times := make([]float64, setupBuilds)
	for i := range times {
		runtime.GC()
		start := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		times[i] = time.Since(start).Seconds()
		cal.sample()
	}
	return stats.Median(times), nil
}

// timeNew returns the median time of building every listed machine once
// with dragonfly.New and opts.
func timeNew(machines []dragonfly.Geometry, opts []dragonfly.Option, cal *calibrator) (float64, error) {
	return timeBuilds(func() error {
		for _, g := range machines {
			if _, err := dragonfly.New(append(opts, dragonfly.WithGeometry(g))...); err != nil {
				return err
			}
		}
		return nil
	}, cal)
}

// timeTopo is timeNew for topo.New alone, uncalibrated.
func timeTopo(machines []dragonfly.Geometry) (float64, error) {
	return timeBuilds(func() error {
		for _, g := range machines {
			if _, err := topo.New(g); err != nil {
				return err
			}
		}
		return nil
	}, nil)
}

// setBuildTimes sets dragonfly.new_s and topo.build_s, in wall time.
func setBuildTimes(o *outcome, machines []dragonfly.Geometry, opts []dragonfly.Option) error {
	newS, err := timeNew(machines, opts, nil)
	if err != nil {
		return err
	}
	topoS, err := timeTopo(machines)
	if err != nil {
		return err
	}
	o.set("dragonfly.new_s", "s", newS)
	o.set("topo.build_s", "s", topoS)
	return nil
}

// traceTrials runs tracedTrials trials untraced and then the same trials
// traced (spans, delivery capture, timed routing decisions and, when
// profile is set, the CPU profile), checks both sets, and sets every
// trial-level layer metric from them and from the isolation calls made
// after the traced trials. The benchmark's own loop is the trial executor
// whose harness metrics it sets.
func traceTrials(o *outcome, name string, spec *simSpec, cfg runConfig, tr *tracer, profile string) error {
	r, err := newSimRunner(spec, cfg.seed)
	if err != nil {
		return err
	}
	n := tracedTrials
	if cfg.smoke {
		n = 2
	}
	warm := r.run(0, trialSeed(cfg.seed, 0), true, nil)

	plain := make([]trial, n)
	before := readRuntime()
	for i := range plain {
		plain[i] = r.run(i, trialSeed(cfg.seed, i), false, nil)
	}
	after := readRuntime()

	stop := func() error { return nil }
	if profile != "" {
		if stop, err = startProfile(profile); err != nil {
			return err
		}
	}
	traced := make([]trial, n)
	start := time.Now()
	for i := range traced {
		traced[i] = r.run(i, trialSeed(cfg.seed, i), true, tr)
	}
	tracedPhase := time.Since(start)
	if err := stop(); err != nil {
		return err
	}
	if err := checkTrials(o, name, cfg, plain, warm); err != nil {
		return err
	}
	for i := range traced {
		if traced[i].err == nil && traced[i].digest != plain[i].digest {
			o.fail(fmt.Errorf("traced trial %d hashes %.12s…, untraced %.12s…", i, traced[i].digest, plain[i].digest))
		}
	}

	pw := make([]float64, n)
	tw := make([]float64, n)
	var plainPkts, plainWall, tracedWall, events float64
	for i := range plain {
		pw[i], tw[i] = plain[i].wall.Seconds(), traced[i].wall.Seconds()
		plainWall += pw[i]
		tracedWall += tw[i]
		plainPkts += float64(plain[i].packets)
		// Observing a trial adds delivery events, so the count is the
		// unobserved twin's.
		events += float64(plain[i].events)
	}
	o.set("trace.overhead_frac", "ratio", stats.Median(tw)/stats.Median(pw)-1)
	o.set("network.pkts_per_s", "pkt/s", plainPkts/plainWall)
	o.set("runtime.gc_cpu_frac", "ratio", (after.gcCPU-before.gcCPU)/(after.totalCPU-before.totalCPU))
	o.set("runtime.alloc_bytes_per_pkt", "B/pkt", (after.allocBytes-before.allocBytes)/plainPkts)
	o.set("harness.trials", "count", float64(n))
	o.set("harness.trial_s_p50", "s", stats.Median(tw))
	o.set("harness.busy_frac", "ratio", tracedWall/tracedPhase.Seconds())
	o.set("dragonfly.reset_s", "s", stats.Median(tr.durations("dragonfly.Reset")))
	o.set("sim.events", "count", events/float64(n))
	setCounts(o, traced)
	return isolate(o, spec, traced, plain)
}

// setCounts sets the per-trial model and decision counts of the traced trials.
func setCounts(o *outcome, ts []trial) {
	var pkts, msgs, victimPkts, minimal, calls, evals, bias, selMsgs float64
	var selNS float64
	for _, t := range ts {
		pkts += float64(t.packets)
		msgs += float64(len(t.records))
		victimPkts += float64(t.res.Counters.RequestPackets)
		minimal += float64(t.res.Counters.MinimalPackets)
		calls += float64(t.selectCalls)
		selNS += float64(t.selectTime.Nanoseconds())
		evals += float64(t.res.SelectorStats.Evaluations)
		bias += float64(t.res.SelectorStats.BiasMessages)
		selMsgs += float64(t.res.SelectorStats.Messages)
	}
	n := float64(len(ts))
	o.set("network.pkts", "count", pkts/n)
	o.set("network.msgs", "count", msgs/n)
	o.set("routing.minimal_pkt_frac", "ratio", minimal/victimPkts)
	o.set("noise.pkt_frac", "ratio", (pkts-victimPkts)/pkts)
	o.set("core.select_calls", "count", calls/n)
	o.set("core.select_ns", "ns", selNS/calls)
	o.set("core.evaluations", "count", evals/n)
	o.set("core.bias_msg_frac", "ratio", ratio(bias, selMsgs))
}

// ratio is a/b, or 0 when b is 0 (no selector ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
