package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	// statistics.quantiles(xs, n=4) in Python.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		names = append(names, m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadList() {
		if !seen[w.name] {
			t.Errorf("workload %s is missing from BENCHMARK.json", w.name)
		}
	}
	if len(spec.Workloads) != len(workloadList()) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloadList()))
	}
}

// runSmoke runs the program in-process and decodes its result line.
func runSmoke(t *testing.T, args ...string) report {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(append(args, "-smoke"), &out, &errOut); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("bench %v: result line: %v", args, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("bench %v: correct=%v attempted=%d failed=%d\n%s", args, r.Correct, r.Attempted, r.Failed, errOut.String())
	}
	return r
}

// TestPrintedMetricsMatchSpec checks that every run prints exactly the
// metrics BENCHMARK.json lists for its mode, with the listed units.
func TestPrintedMetricsMatchSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(args []string, want []metricSpec) {
		r := runSmoke(t, args...)
		if len(r.Metrics) != len(want) {
			t.Errorf("bench %v printed %d metrics, BENCHMARK.json lists %d", args, len(r.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := r.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("bench %v: %s missing", args, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("bench %v: %s unit %q, want %q", args, m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("bench %v: %s = %v", args, m.Name, got.Value)
			}
		}
	}
	for _, w := range workloadList() {
		check([]string{"-workload", w.name, "-seed", "1"}, spec.EndToEnd)
	}
	check([]string{"-workload", "medium_allreduce_appaware", "-trace", "1"}, spec.PerLayer)
	check([]string{"-workload", "paper_suite_quick", "-trace", "1"}, spec.PerLayer)

	r := runSmoke(t, "-workload", "medium_allreduce_appaware", "-raw")
	for name := range timePowers {
		scaled, raw := r.Metrics[name], r.Metrics["raw."+name]
		if raw.Unit != scaled.Unit || !(raw.Value > 0) {
			t.Errorf("-raw: raw.%s = %+v beside %+v", name, raw, scaled)
		}
	}
}

func TestFoldTop(t *testing.T) {
	const top = `File: bench
Type: cpu
Duration: 2s, Total samples = 1s (50.00%)
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      500ms 50.00%  dragonfly/internal/topo.(*Topology).AppendMinimalPath
     200ms 20.00% 60.00%      200ms 20.00%  runtime.chanrecv
     150ms 15.00% 75.00%      900ms 90.00%  dragonfly/internal/network.(*Fabric).inject
     100ms 10.00% 85.00%      100ms 10.00%  runtime.(*guintptr).cas (inline)
      50ms  5.00% 90.00%       50ms  5.00%  runtime.mallocgc
      50ms  5.00% 95.00%       50ms  5.00%  dragonfly/internal/perfmodel.PreferB
      50ms  5.00%   100%       50ms  5.00%  dragonfly/internal/topology.Fake
`
	got, err := foldTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"topo.cpu_frac": 0.4, "network.cpu_frac": 0.15, "runtime.sched_cpu_frac": 0.3,
		"core.cpu_frac": 0.05, "routing.cpu_frac": 0, "sim.cpu_frac": 0, "mpi.cpu_frac": 0,
	}
	if len(got) != len(want) {
		t.Errorf("foldTop returned %d shares, want %d: %v", len(got), len(want), got)
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
	if _, err := foldTop("File: bench\nType: cpu\n"); err == nil {
		t.Error("foldTop accepted a profile without samples")
	}
}

func TestDigestCatchesPerturbedTrial(t *testing.T) {
	spec := workloadList()[2].sim
	r, err := newSimRunner(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := r.run(0, trialSeed(1, 0), true, nil)
	if first.err != nil {
		t.Fatal(first.err)
	}
	again := r.run(0, trialSeed(1, 0), false, nil)
	perturbed := first
	perturbed.res.Counters.RequestPacketsCumLatency++
	perturbed.digest = trialDigest(&perturbed)
	if again.digest != first.digest {
		t.Fatalf("the same trial hashed %s observed, %s unobserved", first.digest, again.digest)
	}
	if perturbed.digest == first.digest {
		t.Fatal("perturbing the victim's latency counter left the digest unchanged")
	}

	o := newOutcome(&bytes.Buffer{})
	cfg := runConfig{seed: 2}
	if err := checkTrials(o, "test", cfg, []trial{first}, again, perturbed); err != nil {
		t.Fatal(err)
	}
	if len(o.failures) != 1 || o.attempted != 1 {
		t.Errorf("repeat check: %d failures over %d attempts, want the perturbed repeat only", len(o.failures), o.attempted)
	}
	golden := map[string]string{digestKey(0): first.digest}
	if errs := mismatches(map[string]string{digestKey(0): perturbed.digest}, golden); len(errs) != 1 {
		t.Errorf("golden check found %d mismatches in a perturbed trial, want 1", len(errs))
	}
	if errs := mismatches(map[string]string{digestKey(0): again.digest}, golden); len(errs) != 0 {
		t.Errorf("golden check flagged an unperturbed trial: %v", errs)
	}

	broken := first
	broken.victimMsgs--
	if r.check(&broken) == nil {
		t.Error("conservation check missed a lost victim message")
	}
	broken = again
	broken.res.Counters.MinimalPackets++
	if r.check(&broken) == nil {
		t.Error("an unobserved trial's counter check missed an extra minimal packet")
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "t", Better: "lower", Bound: 0.1}
	parent := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"faster", scale(0.8), "gain"},
		{"same", parent, "within bound"},
		{"slower", scale(1.2), "regressed"},
		{"flat change", []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, "within bound"},
	} {
		if got := judge(lower, parent, c.change).String(); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	wide := []float64{0.7, 1.3, 0.8, 1.2, 0.75, 1.25, 0.9, 1.1, 0.85, 1.15}
	if got := judge(lower, wide, scale(1.05)).String(); got != "unresolved" {
		t.Errorf("wide parent spread: %s, want unresolved", got)
	}
	higher := metricSpec{Name: "r", Better: "higher", Bound: 0.1}
	if got := judge(higher, parent, scale(1.2)).String(); got != "gain" {
		t.Errorf("higher is better: %s, want gain", got)
	}
}

// TestCompareFiles checks what compareFiles rules on before judging any
// metric: failed change runs and missing metrics fail the comparison even
// when every time is faster than the parent's.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	const specJSON = `{"workloads": [{"name": "w"}],
		"end_to_end": [{"name": "t", "unit": "s", "better": "lower", "bound": 0.1}]}`
	if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	// writeRuns writes minPairs correct runs, the change's 20% faster, then
	// lets edit break run i.
	writeRuns := func(name string, time float64, edit func(i int, r *report)) string {
		var b bytes.Buffer
		for i := 0; i < minPairs; i++ {
			r := report{Correct: true, Attempted: 100,
				Metrics: map[string]metric{"t": {time * (1 + float64(i%3)/100), "s"}}}
			if edit != nil {
				edit(i, &r)
			}
			line, err := json.Marshal(record{Workload: "w", Seed: int64(i + 1), Result: r})
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := writeRuns("parent.jsonl", 1, nil)
	var out, errOut bytes.Buffer
	status := spreadFile(parent, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// statistics.quantiles gives 1 and 1.02 around the median 1.01.
	if want := "w t 10 1.01 0.020"; status != 0 || strings.Join(strings.Fields(lines[len(lines)-1]), " ") != want {
		t.Errorf("spreadFile printed\n%s%swant the row %q", out.String(), errOut.String(), want)
	}
	for _, c := range []struct {
		name   string
		edit   func(i int, r *report)
		status int
		want   string
	}{
		{"correct", nil, 0, "gain"},
		{"incorrect run", func(i int, r *report) {
			if i == 3 {
				r.Correct, r.Failed = false, 1
			}
		}, 1, "failed"},
		{"missing metric", func(i int, r *report) {
			if i == 5 {
				delete(r.Metrics, "t")
			}
		}, 1, "missing"},
	} {
		change := writeRuns(c.name+".jsonl", 0.8, c.edit)
		var out, errOut bytes.Buffer
		status := compareFiles(parent, change, spec, &out, &errOut)
		if status != c.status || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: status %d, want %d, and output\n%s%swant a %q row", c.name, status, c.status, out.String(), errOut.String(), c.want)
		}
	}
}
