package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"time"

	"dragonfly/internal/experiments"
	"dragonfly/internal/harness"
	"dragonfly/internal/stats"
)

// pass is one run of every experiment of the suite.
type pass struct {
	// wall is the pass's wall time and trials are the wall times of the
	// harness trials it ran, in seconds.
	wall   float64
	trials []float64
	// hashes are the SHA-256 of each experiment's tables, keyed by id.
	hashes map[string]string
	errs   []error
}

// runPass runs the suite once, taking a calibration sample after every
// experiment. With a non-nil tracer it records a "pass" span (trial = index)
// with one child span per experiment.
func runPass(spec *suiteSpec, ids []string, seed int64, index int, tr *tracer, cal *calibrator) pass {
	p := pass{hashes: map[string]string{}}
	opts := spec.opts(seed)
	// The executor serializes progress callbacks and returns after the last.
	opts.Progress = func(pr harness.Progress) { p.trials = append(p.trials, pr.Elapsed.Seconds()) }
	root := tr.begin("pass", index, -1)
	for _, id := range ids {
		sp := tr.begin("experiments.Run/"+id, index, root)
		start := time.Now()
		tables, err := experiments.Run(id, opts)
		p.wall += time.Since(start).Seconds()
		tr.end(sp)
		cal.sample()
		if err != nil {
			p.errs = append(p.errs, fmt.Errorf("%s: %w", id, err))
			continue
		}
		h := sha256.New()
		for _, t := range tables {
			if err := t.WriteCSV(h); err != nil {
				p.errs = append(p.errs, fmt.Errorf("%s: %w", id, err))
			}
		}
		p.hashes[id] = hex.EncodeToString(h.Sum(nil))
	}
	tr.end(root)
	return p
}

// suiteIDs is the experiment list a run covers: the first one only in a
// smoke run.
func suiteIDs(spec *suiteSpec, cfg runConfig) []string {
	if cfg.smoke {
		return spec.ids[:1]
	}
	return spec.ids
}

// checkPasses counts every experiment run of the passes as attempted and
// fails each that errored, each table hash that differs from the golden one
// and each that differs from the same experiment in the reference pass.
func checkPasses(o *outcome, name string, cfg runConfig, ref pass, passes []pass) error {
	for _, p := range passes {
		o.attempted += len(p.hashes) + len(p.errs)
		for _, err := range p.errs {
			o.fail(err)
		}
		for id, h := range p.hashes {
			if ref.hashes[id] != h {
				o.fail(fmt.Errorf("%s: tables hash %.12s… in one pass, %.12s… in another", id, h, ref.hashes[id]))
			}
		}
	}
	for _, err := range ref.errs {
		o.fail(fmt.Errorf("warm-up pass: %w", err))
	}
	return verifyGolden(o, name, cfg, ref.hashes)
}

// minPasses is the fewest passes the suite workload measures: a pass varies
// by about 10% even at a steady host speed (garbage collection and two
// workers sharing the trials), and the median of four was the steadiest
// that fits the run length. It also fixes the work peak_rss_mib covers.
const minPasses = 4

// measureSuite is the end-to-end run of the suite workload, whose trial is a
// pass: setup, one untimed warm-up pass, then passes for cfg.seconds (and at
// least minPasses). Its harness trials, which range from 0.2 ms to 3 s, are
// the unit of work_per_s.
func measureSuite(name string, spec *suiteSpec, cfg runConfig) (*outcome, error) {
	o := newOutcome(cfg.stderr)
	setupCal, cal := &calibrator{}, &calibrator{}
	setup, err := timeNew(spec.machines, nil, setupCal)
	if err != nil {
		return nil, err
	}
	ids := suiteIDs(spec, cfg)
	warm := runPass(spec, ids, cfg.seed, -1, nil, nil)
	var passes []pass
	var rss float64
	start := time.Now()
	for len(passes) == 0 || !cfg.smoke && (len(passes) < minPasses || time.Since(start) < cfg.seconds) {
		passes = append(passes, runPass(spec, ids, cfg.seed, len(passes), nil, cal))
		if len(passes) <= minPasses {
			if rss, err = peakRSSMiB(); err != nil {
				return nil, err
			}
		}
	}
	if err := checkPasses(o, name, cfg, warm, passes); err != nil {
		return nil, err
	}
	walls := make([]float64, len(passes))
	var trials, total float64
	for i, p := range passes {
		walls[i] = p.wall
		total += p.wall
		trials += float64(len(p.trials))
	}
	o.set("trial_s_p50", "s", stats.Median(walls))
	o.set("trial_s_p90", "s", stats.Percentile(walls, 90))
	o.set("work_per_s", "1/s", trials/total)
	o.set("setup_s", "s", setup)
	o.set("peak_rss_mib", "MiB", rss)
	o.scaleTimes(setupCal, cfg.raw, "setup_s")
	o.scaleTimes(cal, cfg.raw, "trial_s_p50", "trial_s_p90", "work_per_s")
	return o, nil
}

// suitePasses is how many passes each phase of the traced suite run makes.
const suitePasses = 2

// traceSuite is the traced run of the suite workload. The profile, harness
// and GC metrics cover the suite's own passes; the trial-level layer
// metrics come from traceTrials over the suite's probe trial, because the
// suite's trials run inside the harness, out of the benchmark's reach.
func traceSuite(name string, spec *suiteSpec, cfg runConfig) (*outcome, error) {
	o := newOutcome(cfg.stderr)
	tr := newTracer()
	ids := suiteIDs(spec, cfg)
	warm := runPass(spec, ids, cfg.seed, -1, nil, nil)

	var plain, traced []pass
	before := readRuntime()
	for i := 0; i < suitePasses; i++ {
		plain = append(plain, runPass(spec, ids, cfg.seed, i, nil, nil))
	}
	after := readRuntime()
	profile := filepath.Join(outDir, "cpu_"+name+".pprof")
	stop, err := startProfile(profile)
	if err != nil {
		return nil, err
	}
	for i := 0; i < suitePasses; i++ {
		traced = append(traced, runPass(spec, ids, cfg.seed, i, tr, nil))
	}
	if err := stop(); err != nil {
		return nil, err
	}
	if err := checkPasses(o, name, cfg, warm, append(plain, traced...)); err != nil {
		return nil, err
	}

	if err := traceTrials(o, name+"_probe", spec.probe, cfg, tr, ""); err != nil {
		return nil, err
	}

	shares, err := profileShares(profile)
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		o.set(k, "ratio", v)
	}
	var pw, tw, trials []float64
	var wall, busy float64
	for i := range plain {
		pw = append(pw, plain[i].wall)
		tw = append(tw, traced[i].wall)
		wall += traced[i].wall
		trials = append(trials, traced[i].trials...)
	}
	for _, t := range trials {
		busy += t
	}
	workers := spec.opts(cfg.seed).Parallel
	o.set("trace.overhead_frac", "ratio", stats.Median(tw)/stats.Median(pw)-1)
	o.set("runtime.gc_cpu_frac", "ratio", (after.gcCPU-before.gcCPU)/(after.totalCPU-before.totalCPU))
	o.set("harness.trials", "count", float64(len(trials))/float64(len(traced)))
	o.set("harness.trial_s_p50", "s", stats.Median(trials))
	o.set("harness.busy_frac", "ratio", busy/(wall*float64(workers)))
	if err := setBuildTimes(o, spec.machines, nil); err != nil {
		return nil, err
	}
	return o, tr.writeSpans(filepath.Join(outDir, "trace_"+name+".json"))
}
