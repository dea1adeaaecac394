package experiments

import (
	"strings"
	"testing"
)

func TestSchedulerInterferenceSmoke(t *testing.T) {
	opts := QuickOptions()
	opts.Iterations = 3
	tables, err := SchedulerInterference(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "sched", tables)
	if len(tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(tables))
	}
	out := tables[0].String()
	// Three placement policies x three routing setups.
	for _, placement := range []string{"contiguous", "random", "hybrid"} {
		if !strings.Contains(out, placement) {
			t.Fatalf("placement %q missing from table:\n%s", placement, out)
		}
	}
	for _, setup := range []string{"Default", "HighBias", "AppAware"} {
		if !strings.Contains(out, setup) {
			t.Fatalf("setup %q missing from table:\n%s", setup, out)
		}
	}
}

func TestBaselineComparisonSmoke(t *testing.T) {
	opts := QuickOptions()
	opts.Iterations = 3
	tables, err := BaselineComparison(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "baselines", tables)
	out := tables[0].String()
	if !strings.Contains(out, "PatternAware") || !strings.Contains(out, "AppAware") {
		t.Fatalf("baseline table missing setups:\n%s", out)
	}
}

func TestCollectiveAlgorithmsSmoke(t *testing.T) {
	opts := QuickOptions()
	opts.Iterations = 3
	tables, err := CollectiveAlgorithms(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "collalgos", tables)
	out := tables[0].String()
	for _, algo := range []string{"alltoall/pairwise", "alltoall/bruck", "allreduce/doubling", "allreduce/ring"} {
		if !strings.Contains(out, algo) {
			t.Fatalf("algorithm %q missing from table:\n%s", algo, out)
		}
	}
}

func TestTelemetryCongestionSmoke(t *testing.T) {
	opts := QuickOptions()
	opts.Iterations = 3
	tables, err := TelemetryCongestion(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "telemetry", tables)
	if len(tables) < 3 {
		t.Fatalf("got %d tables, want summary plus two group matrices", len(tables))
	}
	out := tables[0].String()
	if !strings.Contains(out, "Default") || !strings.Contains(out, "HighBias") {
		t.Fatalf("telemetry summary missing routing setups:\n%s", out)
	}
}

func TestPatternAwareSetupAggregatesStats(t *testing.T) {
	setup := PatternAwareSetup()
	p1 := setup.Provider(0)
	p2 := setup.Provider(1)
	p1.SelectMode(1024, 0)
	p2.SelectMode(2048, 0)
	st := setup.Stats()
	if st.Messages != 2 || st.Bytes != 3072 {
		t.Fatalf("aggregated stats wrong: %+v", st)
	}
}

func TestNewExperimentsRegistered(t *testing.T) {
	reg := Registry()
	for _, id := range []string{"sched", "baselines", "collalgos", "telemetry", "biassweep"} {
		if _, ok := reg[id]; !ok {
			t.Fatalf("experiment %q not registered", id)
		}
	}
}

func TestBiasSweepSmoke(t *testing.T) {
	opts := QuickOptions()
	opts.Iterations = 3
	tables, err := BiasSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	out := tables[0].String()
	if !strings.Contains(out, "pingpong/16KiB inter-group") || !strings.Contains(out, "alltoall/16KiB") {
		t.Fatalf("bias sweep table missing benchmarks:\n%s", out)
	}
	// One row per (benchmark, bias) pair; quick mode sweeps 4 biases x 2 benchmarks.
	if len(tables[0].Rows) != 8 {
		t.Fatalf("bias sweep produced %d rows, want 8", len(tables[0].Rows))
	}
}
