// Command bench is the repository benchmark. One run measures one workload
// in its own process and prints, as the last line of standard output, one
// JSON object: whether the simulated outputs checked out, how many trials
// were attempted and failed, and every metric by name and unit.
//
//	go run . -workload daint_alltoall_noisy -seed 1 -seconds 20 -trace 0
//
// It runs from the bench directory (bench/run.sh changes into it). -trace 1
// runs the traced per-layer measurement instead of the end-to-end one;
// -compare applies the paired comparison rule to two files of run records,
// and -spread prints each metric's run-to-run spread over one. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line of one run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what the command line asks one run to do.
type runConfig struct {
	seed    int64
	seconds time.Duration
	smoke   bool
	pin     bool
	raw     bool
	stderr  io.Writer
}

// outcome gathers a run's metrics and the failures its checks found.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failures  []error
	stderr    io.Writer
}

func newOutcome(stderr io.Writer) *outcome {
	return &outcome{metrics: map[string]metric{}, stderr: stderr}
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{v, unit} }

// fail records a failed check and reports it on standard error.
func (o *outcome) fail(err error) {
	o.failures = append(o.failures, err)
	fmt.Fprintln(o.stderr, "bench: FAIL:", err)
}

func (o *outcome) report() report {
	return report{Correct: len(o.failures) == 0, Attempted: max(o.attempted, 1),
		Failed: min(len(o.failures), max(o.attempted, 1)), Metrics: o.metrics}
}

// peakRSSMiB is the process's peak resident set size, less the calibration
// table that is resident from start-up.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss)/1024 - calibTableBytes/(1<<20), nil // Linux reports KiB
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see README.md)")
	seed := fs.Int64("seed", 1, "workload seed; trial i derives its seed from (seed, i)")
	seconds := fs.Float64("seconds", 20, "how long the end-to-end run measures")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	smoke := fs.Bool("smoke", false, "measure two trials (one pass of one experiment) only")
	pin := fs.Bool("pin", false, "rewrite golden/<workload>.json from this run (seed 1)")
	raw := fs.Bool("raw", false, "also print each end-to-end time metric in unscaled wall time, as raw.<name>")
	compare := fs.Bool("compare", false, "compare two run-record files: -compare parent.jsonl change.jsonl")
	spread := fs.Bool("spread", false, "print each metric's median and spread over a run-record file: -spread runs.jsonl")
	list := fs.Bool("list", false, "print the workload names")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		for _, w := range workloadList() {
			fmt.Fprintln(stdout, w.name)
		}
		return 0
	case *compare && fs.NArg() != 2:
		fmt.Fprintln(stderr, "bench: -compare needs two run-record files")
		return 2
	case *compare:
		return compareFiles(fs.Arg(0), fs.Arg(1), "../BENCHMARK.json", stdout, stderr)
	case *spread && fs.NArg() != 1:
		fmt.Fprintln(stderr, "bench: -spread needs one run-record file")
		return 2
	case *spread:
		return spreadFile(fs.Arg(0), stdout, stderr)
	}
	w, ok := findWorkload(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	case *seconds <= 0:
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	case *pin && *seed != 1:
		fmt.Fprintln(stderr, "bench: -pin needs -seed 1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		smoke: *smoke, pin: *pin, raw: *raw, stderr: stderr}
	if err := mapCalibTable(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	var o *outcome
	var err error
	switch {
	case w.sim != nil && *traced == 0:
		o, err = measureSim(w.name, w.sim, cfg)
	case w.sim != nil:
		o, err = traceSimWorkload(w.name, w.sim, cfg)
	case *traced == 0:
		o, err = measureSuite(w.name, w.suite, cfg)
	default:
		o, err = traceSuite(w.name, w.suite, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(o.report())
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
