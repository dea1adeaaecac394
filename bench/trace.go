package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// span is one recorded interval of the traced run. Start and End are
// nanoseconds since the tracer started; Parent is the index of the parent
// span in the written array, -1 for a root. An aggregated span (Count > 0)
// stands for Count calls inside its parent whose durations add up to
// TotalNS.
type span struct {
	Name    string `json:"name"`
	Trial   int    `json:"trial"`
	Parent  int    `json:"parent"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Count   uint64 `json:"count,omitempty"`
	TotalNS int64  `json:"total_ns,omitempty"`
}

// tracer keeps the traced run's spans in memory until writeSpans. A nil
// tracer records nothing, so untraced trials call the same methods.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, which children pass as parent.
func (t *tracer) begin(name string, trial, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Trial: trial, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
}

// aggregate records count calls, of total duration, made inside span parent.
func (t *tracer) aggregate(name string, trial, parent int, count uint64, total time.Duration) {
	if t == nil {
		return
	}
	p := t.spans[parent]
	t.spans = append(t.spans, span{Name: name, Trial: trial, Parent: parent,
		Start: p.Start, End: p.End, Count: count, TotalNS: total.Nanoseconds()})
}

// durations returns the durations, in seconds, of every span with the name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// writeSpans writes the spans as one JSON array.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(t.spans); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// profileLayers maps each profile-share metric to the function-name prefixes
// whose flat samples it counts.
var profileLayers = []struct {
	metric   string
	prefixes []string
}{
	{"topo.cpu_frac", []string{"dragonfly/internal/topo."}},
	{"routing.cpu_frac", []string{"dragonfly/internal/routing."}},
	{"network.cpu_frac", []string{"dragonfly/internal/network."}},
	{"sim.cpu_frac", []string{"dragonfly/internal/sim."}},
	{"mpi.cpu_frac", []string{"dragonfly/internal/mpi."}},
	{"core.cpu_frac", []string{"dragonfly/internal/core.", "dragonfly/internal/perfmodel."}},
}

// schedFuncs matches the runtime functions of goroutine hand-off: parking
// and readying goroutines, the scheduler loop and its run queues, idle-P and
// M management, channel and select frames, and the locks and futexes beneath
// them. Allocation, garbage collection, maps and clock reads are left out.
var schedFuncs = regexp.MustCompile(`^runtime\.(` +
	`gopark|goparkunlock|goready|ready|park_m|mcall|schedule|findRunnable|execute|gogo|dropg|` +
	`gosched_m|goschedImpl|casgstatus|casGToWaiting|\(\*guintptr\)\.cas|` +
	`runqget|runqput|runqputslow|runqgrab|runqsteal|runqempty|globrunqget|globrunqput|stealWork|` +
	`checkTimers|\(\*timers\)\.\w+|resetspinning|wakep|startm|stopm|handoffp|acquirep|releasep|` +
	`pidleget|pidlegetSpinning|pidleput|pMask\.\w+|mPark|notesleep|notewakeup|semasleep|semawakeup|` +
	`futex|futexsleep|futexwakeup|lock2|unlock2|lockWithRank|unlockWithRank|procyield|osyield|usleep|` +
	`acquirem|releasem|chansend|chansend1|chanrecv|chanrecv1|chanrecv2|send|recv|send\.goready\.func1|` +
	`closechan|selectgo|sellock|selunlock|selparkcommit|chanparkcommit|acquireSudog|releaseSudog|` +
	`\(\*waitq\)\.\w+)$`)

// topLine matches one row of `go tool pprof -top`: flat, flat%, sum%, cum,
// cum%, function.
var topLine = regexp.MustCompile(`^\s*([0-9.]+)(ns|us|µs|ms|s|min|h)\s+[0-9.]+%\s+[0-9.]+%\s+[0-9.]+(?:ns|us|µs|ms|s|min|h)\s+[0-9.]+%\s+(.+?)\s*$`)

var unitSeconds = map[string]float64{"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1, "min": 60, "h": 3600}

// foldTop folds `go tool pprof -top` output into flat-sample shares: one per
// profileLayers metric plus runtime.sched_cpu_frac.
func foldTop(text string) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	for _, line := range strings.Split(text, "\n") {
		m := topLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		v *= unitSeconds[m[2]]
		total += v
		fn := strings.TrimSuffix(m[3], " (inline)")
		for _, l := range profileLayers {
			for _, p := range l.prefixes {
				if strings.HasPrefix(fn, p) {
					flat[l.metric] += v
				}
			}
		}
		if schedFuncs.MatchString(fn) {
			flat["runtime.sched_cpu_frac"] += v
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("no samples in pprof -top output")
	}
	out := map[string]float64{"runtime.sched_cpu_frac": flat["runtime.sched_cpu_frac"] / total}
	for _, l := range profileLayers {
		out[l.metric] = flat[l.metric] / total
	}
	return out, nil
}

// profileShares runs `go tool pprof -top` over a CPU profile, keeping every
// node, and folds it.
func profileShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(profile))
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(string(out))
}
