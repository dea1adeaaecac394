package experiments

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dragonfly"
	"dragonfly/internal/harness"
	"dragonfly/internal/noise"
	"dragonfly/internal/topo"
	"dragonfly/internal/trace"
	"dragonfly/internal/workloads"
)

// cell parses a float cell of a table row.
func cell(t *testing.T, tbl *trace.Table, row, col int) float64 {
	t.Helper()
	if row >= len(tbl.Rows) || col >= len(tbl.Rows[row]) {
		t.Fatalf("table %q has no cell (%d,%d)", tbl.Title, row, col)
	}
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) of %q is not numeric: %q", row, col, tbl.Title, tbl.Rows[row][col])
	}
	return v
}

func TestOptionsNormalizeAndScale(t *testing.T) {
	var zero Options
	n := zero.normalize()
	d := DefaultOptions()
	if n.Seed != d.Seed || n.Iterations != d.Iterations || n.Nodes != d.Nodes {
		t.Fatalf("normalize did not fill defaults: %+v", n)
	}
	q := QuickOptions()
	if !q.Quick || q.iters() > 6 {
		t.Fatalf("quick options wrong: %+v", q)
	}
	if q.scaleSize(4096) >= 4096 {
		t.Fatal("quick scaling must shrink sizes")
	}
	if d.scaleSize(4) < 8 {
		t.Fatal("scaleSize must clamp to a minimum")
	}
	if d.pizDaintGeometry().Groups != 6 || d.coriGeometry().Groups != 5 {
		t.Fatal("wrong geometry group counts")
	}
	full := DefaultOptions()
	full.FullAries = true
	if full.pizDaintGeometry().BladesPerChassis != 16 || full.coriGeometry().BladesPerChassis != 16 {
		t.Fatal("FullAries must use full Aries geometry")
	}
}

// TestStripedTrialClampsToMachine pins the clamp of stripedTrial: a request
// larger than the machine silently becomes a machine-filling job (the -nodes
// flag applies one size to several geometries), in deliberate contrast to
// dragonfly.System.Allocate, which fails such requests with ErrJobTooLarge.
// With noise, the job is placed first and the best-effort background job
// finds no room.
func TestStripedTrialClampsToMachine(t *testing.T) {
	opts := QuickOptions()
	opts.Iterations, opts.Parallel = 1, 1
	geometry := topo.SmallConfig(2)
	machine := geometry.Nodes()
	var ranks []int
	var specs []harness.TrialSpec[[]dragonfly.Result]
	for _, ns := range []*dragonfly.NoiseConfig{nil, opts.noiseSpec(noise.UniformRandom)} {
		specs = append(specs, harness.TrialSpec[[]dragonfly.Result]{
			ID:       fmt.Sprintf("clamp/noisy=%t", ns != nil),
			Geometry: geometry,
			Body: opts.stripedTrial(machine*10, ns, singleSetup(DefaultSetup), func(n int) workloads.Workload {
				ranks = append(ranks, n)
				return &workloads.Barrier{Iterations: 1}
			}),
		})
	}
	if _, err := runTrials(opts, specs); err != nil {
		t.Fatal(err)
	}
	if want := []int{machine, machine}; !reflect.DeepEqual(ranks, want) {
		t.Fatalf("clamped jobs ran %v ranks, want %v (machine %d)", ranks, want, machine)
	}
}

func TestRegistryAndRun(t *testing.T) {
	names := Names()
	if len(names) != 21 {
		t.Fatalf("expected 21 experiments, got %d: %v", len(names), names)
	}
	for _, want := range []string{"fig3", "tab1", "fig4", "fig5", "fig7", "model", "fig8", "fig9", "fig10",
		"ablations", "noisesweep", "hysteresis", "sched", "cotenant", "baselines", "collalgos", "telemetry", "biassweep",
		"fullmachine", "openstream", "counterfactual"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("experiment %q not registered", want)
		}
	}
	if _, err := Run("nope", QuickOptions()); err == nil {
		t.Fatal("unknown experiment id must fail")
	}
}

func TestFigure3Allocations(t *testing.T) {
	tables, err := Figure3Allocations(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("expected 1 table, got %d", len(tables))
	}
	tbl := tables[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("expected 4 allocation classes, got %d rows", len(tbl.Rows))
	}
	labels := []string{"Inter-Nodes", "Inter-Blades", "Inter-Chassis", "Inter-Groups"}
	for i, want := range labels {
		if tbl.Rows[i][0] != want {
			t.Fatalf("row %d label = %q, want %q", i, tbl.Rows[i][0], want)
		}
		if cell(t, tbl, i, 1) <= 0 {
			t.Fatalf("row %q has non-positive median", want)
		}
	}
	// Shape: farther allocations have a higher median; inter-groups must be
	// the slowest and inter-nodes the fastest.
	interNodes := cell(t, tbl, 0, 1)
	interGroups := cell(t, tbl, 3, 1)
	if interGroups <= interNodes {
		t.Fatalf("inter-group median (%v) should exceed inter-node median (%v)", interGroups, interNodes)
	}
}

func TestTable1IdleFlits(t *testing.T) {
	tables, err := Table1IdleFlits(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "tab1", tables)
	tbl := tables[0]
	if len(tbl.Rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(tbl.Rows))
	}
	flits1 := cell(t, tbl, 0, 2)
	flits2 := cell(t, tbl, 1, 2)
	if flits1 <= 0 || flits2 <= 0 {
		t.Fatalf("idle job observed no flits: %v %v", flits1, flits2)
	}
	// The longer observation window must see more flits (roughly double; we
	// only assert strictly more to stay robust at tiny scales).
	if flits2 <= flits1 {
		t.Fatalf("doubling the idle time did not increase observed flits: %v vs %v", flits1, flits2)
	}
}

func TestFigure4OnNodeAlltoall(t *testing.T) {
	tables, err := Figure4OnNodeAlltoall(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "fig4", tables)
	tbl := tables[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("expected 4 sizes, got %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		if cell(t, tbl, i, 1) <= 0 {
			t.Fatalf("row %d has non-positive median time", i)
		}
		// The whole point of Figure 4: variability exists (QCD > 0) although
		// no NIC packets were sent.
		if packets := cell(t, tbl, i, len(tbl.Columns)-1); packets != 0 {
			t.Fatalf("on-node alltoall sent %v NIC packets, want 0", packets)
		}
		if qcd := cell(t, tbl, i, 6); qcd <= 0 {
			t.Fatalf("row %d shows no execution-time variability (qcd=%v)", i, qcd)
		}
	}
}

func TestFigure5QCD(t *testing.T) {
	tables, err := Figure5QCD(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "fig5", tables)
	tbl := tables[0]
	if len(tbl.Rows) < 3 {
		t.Fatalf("expected at least 3 sizes, got %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		qcdTime := cell(t, tbl, i, 1)
		qcdLat := cell(t, tbl, i, 2)
		if qcdTime < 0 || qcdLat < 0 {
			t.Fatalf("negative QCD in row %d", i)
		}
	}
	// Shape: for the smallest message the execution-time QCD must not
	// understate the latency QCD (it includes host-side delays on top).
	if cell(t, tbl, 0, 1) < cell(t, tbl, 0, 2)*0.5 {
		t.Fatalf("execution-time QCD (%v) unexpectedly far below latency QCD (%v) for small messages",
			cell(t, tbl, 0, 1), cell(t, tbl, 0, 2))
	}
}

func TestFigure7RoutingPingPong(t *testing.T) {
	tables, err := Figure7RoutingPingPong(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "fig7", tables)
	if len(tables) != 4 {
		t.Fatalf("expected 4 sub-figure tables, got %d", len(tables))
	}
	wantLabels := []string{
		"Intra-Group/Adaptive", "Intra-Group/HighBias",
		"Inter-Groups/Adaptive", "Inter-Groups/HighBias",
	}
	for _, tbl := range tables {
		if len(tbl.Rows) != 4 {
			t.Fatalf("table %q has %d rows, want 4", tbl.Title, len(tbl.Rows))
		}
		for i, want := range wantLabels {
			if tbl.Rows[i][0] != want {
				t.Fatalf("table %q row %d label %q, want %q", tbl.Title, i, tbl.Rows[i][0], want)
			}
		}
	}
	// Execution times must be positive everywhere.
	for i := range tables[0].Rows {
		if cell(t, tables[0], i, 1) <= 0 {
			t.Fatalf("non-positive execution time median in row %d", i)
		}
	}
	// winnerSummary must be able to compare the inter-group pair.
	winner, ratio, err := winnerSummary(tables[0], "Inter-Groups/Adaptive", "Inter-Groups/HighBias")
	if err != nil {
		t.Fatal(err)
	}
	if winner == "" || ratio < 1 {
		t.Fatalf("bad winner summary: %q %v", winner, ratio)
	}
	if _, _, err := winnerSummary(tables[0], "nope", "also-nope"); err == nil {
		t.Fatal("winnerSummary must fail for unknown labels")
	}
}

// winnerSummary returns which of two rows of a Figure-7 style table has the
// lower median, and the higher median over the lower.
func winnerSummary(tbl *trace.Table, labelA, labelB string) (winner string, ratio float64, err error) {
	median := make(map[string]float64)
	for _, row := range tbl.Rows {
		if len(row) < 2 {
			continue
		}
		if v, err := strconv.ParseFloat(row[1], 64); err == nil {
			median[row[0]] = v
		}
	}
	medA, okA := median[labelA]
	medB, okB := median[labelB]
	if !okA || !okB {
		return "", 0, fmt.Errorf("labels %q/%q not found in table %q", labelA, labelB, tbl.Title)
	}
	if medA == 0 || medB == 0 {
		return "", 0, fmt.Errorf("zero median in table %q", tbl.Title)
	}
	if medA <= medB {
		return labelA, medB / medA, nil
	}
	return labelB, medA / medB, nil
}

func TestModelValidation(t *testing.T) {
	tables, err := ModelValidation(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "model", tables)
	tbl := tables[0]
	if len(tbl.Rows) < 3 {
		t.Fatalf("expected at least 3 rows, got %d", len(tbl.Rows))
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "average" {
		t.Fatalf("last row should be the average, got %q", last[0])
	}
	avg := cell(t, tbl, len(tbl.Rows)-1, 1)
	if avg <= 0.3 {
		t.Fatalf("average model correlation %v too low; the paper reports ~0.79", avg)
	}
}

func TestFigure8Microbenchmarks(t *testing.T) {
	tables, err := Figure8Microbenchmarks(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "fig8", tables)
	tbl := tables[0]
	if len(tbl.Rows) < 5 {
		t.Fatalf("expected at least 5 benchmark rows, got %d", len(tbl.Rows))
	}
	checkComparisonTable(t, tbl)
}

func TestFigure9MicrobenchmarksCori(t *testing.T) {
	tables, err := Figure9MicrobenchmarksCori(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "fig9", tables)
	if !strings.Contains(tables[0].Title, "Cori") {
		t.Fatalf("title should mention Cori: %q", tables[0].Title)
	}
	checkComparisonTable(t, tables[0])
}

func TestFigure10Applications(t *testing.T) {
	tables, err := Figure10Applications(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "fig10", tables)
	if len(tables) != 2 {
		t.Fatalf("expected application table plus small-FFT table, got %d", len(tables))
	}
	checkComparisonTable(t, tables[0])
	checkComparisonTable(t, tables[1])
	if len(tables[1].Rows) != 1 || !strings.Contains(tables[1].Rows[0][0], "fft-small") {
		t.Fatalf("second table should hold the small FFT run: %+v", tables[1].Rows)
	}
}

// checkComparisonTable validates the invariants of a Figure 8/9/10 style table.
func checkComparisonTable(t *testing.T, tbl *trace.Table) {
	t.Helper()
	for i, row := range tbl.Rows {
		if cell(t, tbl, i, 1) <= 0 {
			t.Fatalf("row %q has non-positive default median", row[0])
		}
		// Default normalized median is 1 by construction.
		if v := cell(t, tbl, i, 2); v < 0.999 || v > 1.001 {
			t.Fatalf("row %q default normalized median = %v, want 1.0", row[0], v)
		}
		for _, col := range []int{4, 6} { // highbias, appaware normalized medians
			if v := cell(t, tbl, i, col); v <= 0 {
				t.Fatalf("row %q column %d non-positive", row[0], col)
			}
		}
		frac := cell(t, tbl, i, 8)
		if frac < 0 || frac > 100 {
			t.Fatalf("row %q %% default traffic out of range: %v", row[0], frac)
		}
	}
}

func TestNoiseSweep(t *testing.T) {
	tables, err := NoiseSweep(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if len(tbl.Rows) < 2 {
		t.Fatalf("expected at least 2 interference levels, got %d", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "none" {
		t.Fatalf("first row should be the no-interference baseline, got %q", tbl.Rows[0][0])
	}
	for i := range tbl.Rows {
		for col := 1; col <= 3; col++ {
			if cell(t, tbl, i, col) <= 0 {
				t.Fatalf("row %d column %d non-positive", i, col)
			}
		}
		frac := cell(t, tbl, i, 6)
		if frac < 0 || frac > 100 {
			t.Fatalf("row %d %% default traffic out of range: %v", i, frac)
		}
	}
}

func TestHysteresisStudy(t *testing.T) {
	tables, err := HysteresisStudy(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "hysteresis", tables)
	if len(tables) != 2 {
		t.Fatalf("expected 2 workload tables, got %d", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) < 2 {
			t.Fatalf("table %q has too few rows", tbl.Title)
		}
		for i := range tbl.Rows {
			if cell(t, tbl, i, 1) <= 0 {
				t.Fatalf("table %q row %d non-positive median", tbl.Title, i)
			}
			if sw := cell(t, tbl, i, 3); sw < 0 {
				t.Fatalf("negative switch count in %q", tbl.Title)
			}
		}
	}
}

func TestAblations(t *testing.T) {
	tables, err := Ablations(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "ablations", tables)
	if len(tables) != 4 {
		t.Fatalf("expected 4 ablation tables, got %d", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) < 4 {
			t.Fatalf("ablation table %q has too few rows: %d", tbl.Title, len(tbl.Rows))
		}
		for i := range tbl.Rows {
			if cell(t, tbl, i, 1) <= 0 {
				t.Fatalf("ablation %q row %d non-positive median", tbl.Title, i)
			}
		}
	}
}
