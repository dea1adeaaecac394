package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"text/tabwriter"
)

// minPairs is the fewest parent/change pairs a comparison accepts.
const minPairs = 10

// record is one line of a run-record file: a run's result line tagged with
// the workload and seed it ran (bench/run.sh and bench/pairs.sh write them).
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   report `json:"result"`
}

// metricSpec is one end_to_end entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// loadRecords reads a run-record file, keeping file order per workload.
func loadRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

// verdict is the outcome of comparing one (workload, metric) pairing.
type verdict struct {
	n                      int
	parent, change         [3]float64 // q1, median, q3
	wins                   int
	gain, regressed, unres bool
}

func (v verdict) String() string {
	switch {
	case v.gain:
		return "gain"
	case v.unres:
		return "unresolved"
	case v.regressed:
		return "regressed"
	}
	return "within bound"
}

// judge applies the paired rule to the runs of one metric. Pair i is
// parent[i] against change[i]. A gain needs the change to win at least nine
// tenths of the pairs (ties count for neither side) and its median to beat
// the parent's by more than the parent's interquartile range. Otherwise the
// change regresses when its median is worse than the parent's by more than
// the bound, and the pairing is unresolved when the parent's own spread is
// wider than the bound, unless every change run beats every parent run.
// Failed runs are judged before this, by compareFiles.
func judge(m metricSpec, parent, change []float64) verdict {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	sign := 1.0 // +1 when lower is better
	if m.Better == "higher" {
		sign = -1
	}
	v := verdict{n: n}
	v.parent[0], v.parent[1], v.parent[2] = quartiles(parent)
	v.change[0], v.change[1], v.change[2] = quartiles(change)
	for i := range parent {
		if sign*(change[i]-parent[i]) < 0 {
			v.wins++
		}
	}
	iqr := v.parent[2] - v.parent[0]
	improvement := sign * (v.parent[1] - v.change[1])
	v.gain = float64(v.wins) >= 0.9*float64(n) && improvement > iqr
	if v.gain {
		return v
	}
	allBetter := slices.Max(change) < slices.Min(parent)
	if sign < 0 {
		allBetter = slices.Min(change) > slices.Max(parent)
	}
	v.unres = iqr/v.parent[1] > m.Bound && !allBetter
	v.regressed = -improvement/v.parent[1] > m.Bound
	return v
}

// compareFiles compares every end-to-end metric of every workload in
// BENCHMARK.json between two run-record files and prints one row per
// pairing. A workload whose change runs include an incorrect one, or fail
// more trials than the parent's, gets a single "failed" row instead: its
// times do not count. It returns 1 when any workload failed or lacks pairs,
// any run lacks a metric, or any pairing regressed.
func compareFiles(parentPath, changePath, specPath string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specPath)
	if err == nil && len(spec.EndToEnd) == 0 {
		err = fmt.Errorf("%s lists no end_to_end metrics", specPath)
	}
	var parent, change map[string][]record
	if err == nil {
		parent, err = loadRecords(parentPath)
	}
	if err == nil {
		change, err = loadRecords(changePath)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tpairs\tparent q1 / median / q3\tchange q1 / median / q3\twins\tverdict")
	status := 0
	for _, w := range spec.Workloads {
		p, c := parent[w.Name], change[w.Name]
		n := min(len(p), len(c))
		if n < minPairs {
			fmt.Fprintf(tw, "%s\t*\t%d\t\t\t\tneeds %d pairs\n", w.Name, n, minPairs)
			status = 1
			continue
		}
		p, c = p[:n], c[:n]
		if bad, pf, cf := incorrect(c), failures(p), failures(c); bad > 0 || cf > pf {
			fmt.Fprintf(tw, "%s\t*\t%d\t%d failed trials\t%d failed trials, %d incorrect runs\t\tfailed\n",
				w.Name, n, pf, cf, bad)
			status = 1
			continue
		}
		for _, m := range spec.EndToEnd {
			pv, err := values(p, m.Name, "parent")
			var cv []float64
			if err == nil {
				cv, err = values(c, m.Name, "change")
			}
			if err != nil {
				fmt.Fprintf(tw, "%s\t%s\t%d\t%v\t\t\tmissing\n", w.Name, m.Name, n, err)
				status = 1
				continue
			}
			v := judge(m, pv, cv)
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g / %.4g / %.4g\t%.4g / %.4g / %.4g\t%d/%d\t%s\n",
				w.Name, m.Name, v.n, v.parent[0], v.parent[1], v.parent[2],
				v.change[0], v.change[1], v.change[2], v.wins, v.n, v)
			if v.regressed && !v.unres {
				status = 1
			}
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return status
}

// spreadFile prints, for every workload and metric in a run-record file, the
// runs' median and their spread: the distance between the first and third
// quartiles as a share of the median, the figure a metric's bound must stay
// above over ten runs with ten seeds. It returns 1 when a run lacks a metric
// the workload's first run has.
func spreadFile(path string, stdout, stderr io.Writer) int {
	recs, err := loadRecords(path)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\truns\tmedian\tspread")
	status := 0
	for _, w := range slices.Sorted(maps.Keys(recs)) {
		rs := recs[w]
		for _, m := range slices.Sorted(maps.Keys(rs[0].Result.Metrics)) {
			vs, err := values(rs, m, w)
			if err != nil {
				fmt.Fprintf(tw, "%s\t%s\t%d\t%v\t\n", w, m, len(rs), err)
				status = 1
				continue
			}
			q1, q2, q3 := quartiles(vs)
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g\t%.3f\n", w, m, len(vs), q2, (q3-q1)/q2)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return status
}

// values returns the metric from every run of one side, or an error naming
// the first run that lacks it.
func values(rs []record, metric, side string) ([]float64, error) {
	out := make([]float64, len(rs))
	for i, r := range rs {
		m, ok := r.Result.Metrics[metric]
		if !ok {
			return nil, fmt.Errorf("the %s run with seed %d lacks it", side, r.Seed)
		}
		out[i] = m.Value
	}
	return out, nil
}

// failures is the number of failed trials over the runs.
func failures(rs []record) int {
	n := 0
	for _, r := range rs {
		n += r.Result.Failed
	}
	return n
}

// incorrect is the number of runs whose outputs did not check out.
func incorrect(rs []record) int {
	n := 0
	for _, r := range rs {
		if !r.Result.Correct {
			n++
		}
	}
	return n
}
