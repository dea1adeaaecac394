// Package dragonfly contains the top-level benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (plus the model
// validation and the selector ablations). Each benchmark regenerates the
// corresponding result table through the experiments package and reports,
// besides the usual ns/op, the headline metric of that experiment as a custom
// benchmark metric so that `go test -bench` output can be compared against
// EXPERIMENTS.md.
//
// The benchmarks run at the reduced "quick" scale so the whole harness
// completes in a couple of minutes; use cmd/experiments with -nodes,
// -size-scale and -full-aries to run at larger scales.
package dragonfly_test

import (
	"runtime"
	"strconv"
	"testing"

	"dragonfly"
	"dragonfly/internal/experiments"
	"dragonfly/internal/trace"
	"dragonfly/internal/workloads"
)

// benchOptions returns the option set used by the benchmark harness.
func benchOptions() experiments.Options {
	o := experiments.QuickOptions()
	o.Iterations = 8
	return o
}

// runExperiment executes one experiment once per benchmark iteration and
// returns the tables of the last run.
func runExperiment(b *testing.B, id string) []*trace.Table {
	b.Helper()
	var tables []*trace.Table
	var err error
	for i := 0; i < b.N; i++ {
		tables, err = experiments.Run(id, benchOptions())
		if err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
	}
	return tables
}

// cellMetric extracts a numeric cell and reports it as a benchmark metric.
func cellMetric(b *testing.B, t *trace.Table, row, col int, name string) {
	b.Helper()
	if row >= len(t.Rows) || col >= len(t.Rows[row]) {
		return
	}
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		return
	}
	b.ReportMetric(v, name)
}

// suiteIDs is the multi-experiment suite used by the serial-vs-parallel
// executor benchmarks: enough independent trials to keep every core busy.
var suiteIDs = []string{"fig3", "fig4", "fig7", "noisesweep", "baselines", "collalgos", "biassweep"}

// runSuite executes the benchmark suite with the given harness worker count.
func runSuite(b *testing.B, parallel int) {
	b.Helper()
	o := benchOptions()
	o.Parallel = parallel
	for i := 0; i < b.N; i++ {
		for _, id := range suiteIDs {
			if _, err := experiments.Run(id, o); err != nil {
				b.Fatalf("experiment %s: %v", id, err)
			}
		}
	}
}

// BenchmarkSuiteSerial runs the experiment suite with a single harness
// worker — the baseline the parallel executor is measured against.
func BenchmarkSuiteSerial(b *testing.B) {
	runSuite(b, 1)
}

// BenchmarkSuiteParallel runs the same suite with one worker per core; the
// tables produced are byte-identical to the serial run, only faster. Compare
// ns/op against BenchmarkSuiteSerial for the executor speedup.
func BenchmarkSuiteParallel(b *testing.B) {
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	runSuite(b, 0)
}

// BenchmarkConcurrentJobs drives the concurrent multi-job path: an alltoall
// victim and a halo3d neighbor co-run through System.RunConcurrent on one
// reused (Reset) system per iteration. It reports the victim's simulated
// time under co-tenancy as a custom metric; compare against the experiments
// in EXPERIMENTS.md "Co-tenancy methodology".
func BenchmarkConcurrentJobs(b *testing.B) {
	sys, err := dragonfly.New(
		dragonfly.WithGeometry(dragonfly.SmallGeometry(4)),
		dragonfly.WithSeed(1),
	)
	if err != nil {
		b.Fatal(err)
	}
	var victimTime float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Reset(1); err != nil {
			b.Fatal(err)
		}
		victim, err := sys.Allocate(dragonfly.GroupStriped, 16)
		if err != nil {
			b.Fatal(err)
		}
		neighbor, err := sys.Allocate(dragonfly.GroupStriped, 16)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := sys.RunConcurrent([]dragonfly.JobRun{
			{
				Job:      victim,
				Workload: &workloads.Alltoall{MessageBytes: 4 << 10, Iterations: 1},
				Options:  dragonfly.RunOptions{Iterations: 4},
			},
			{
				Job:      neighbor,
				Workload: workloads.NewHalo3D(16, 256, 2),
				Options:  dragonfly.RunOptions{Iterations: 2},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		victimTime = float64(rs[0].Time())
	}
	b.ReportMetric(victimTime, "victim_cycles")
}

// BenchmarkCoTenantNeighbors regenerates the co-tenancy extension: the
// alltoall victim next to synthetic vs. real neighbor jobs per routing
// configuration.
func BenchmarkCoTenantNeighbors(b *testing.B) {
	tables := runExperiment(b, "cotenant")
	// Rows per routing: alone, noise, halo3d. Column 3 is "vs alone".
	if len(tables[0].Rows) >= 3 {
		cellMetric(b, tables[0], 1, 3, "default_noise_vs_alone")
		cellMetric(b, tables[0], 2, 3, "default_halo3d_vs_alone")
	}
}

// BenchmarkFig3AllocationPingPong regenerates Figure 3: ping-pong latency
// distributions across allocation classes. Reported metrics: the median cycles
// of the closest (inter-node) and farthest (inter-group) allocations.
func BenchmarkFig3AllocationPingPong(b *testing.B) {
	tables := runExperiment(b, "fig3")
	cellMetric(b, tables[0], 0, 1, "internode_median_cycles")
	cellMetric(b, tables[0], 3, 1, "intergroup_median_cycles")
}

// BenchmarkTable1IdleFlits regenerates Table 1: the flits an idle job observes
// on its routers for 1x and 2x idle time.
func BenchmarkTable1IdleFlits(b *testing.B) {
	tables := runExperiment(b, "tab1")
	cellMetric(b, tables[0], 0, 2, "flits_1x")
	cellMetric(b, tables[0], 1, 2, "flits_2x")
}

// BenchmarkFig4OnNodeAlltoall regenerates Figure 4: on-node alltoall
// execution-time variability with zero network traffic.
func BenchmarkFig4OnNodeAlltoall(b *testing.B) {
	tables := runExperiment(b, "fig4")
	cellMetric(b, tables[0], 0, 6, "qcd_smallest_size")
	cellMetric(b, tables[0], len(tables[0].Rows)-1, 6, "qcd_largest_size")
}

// BenchmarkFig5QCD regenerates Figure 5: QCD of execution time vs QCD of
// packet latency for the inter-group ping-pong.
func BenchmarkFig5QCD(b *testing.B) {
	tables := runExperiment(b, "fig5")
	cellMetric(b, tables[0], 0, 1, "qcd_time_small")
	cellMetric(b, tables[0], 0, 2, "qcd_latency_small")
}

// BenchmarkFig7RoutingPingPong regenerates Figure 7: the large ping-pong under
// Adaptive vs Adaptive-with-High-Bias, intra- and inter-group.
func BenchmarkFig7RoutingPingPong(b *testing.B) {
	tables := runExperiment(b, "fig7")
	// Rows: 0 intra/adaptive, 1 intra/bias, 2 inter/adaptive, 3 inter/bias.
	cellMetric(b, tables[0], 2, 1, "intergroup_adaptive_median_cycles")
	cellMetric(b, tables[0], 3, 1, "intergroup_highbias_median_cycles")
}

// BenchmarkModelValidation regenerates the §2.4 model validation and reports
// the average Pearson correlation between the Eq. 2 estimate and the measured
// transmission time (the paper reports 0.79).
func BenchmarkModelValidation(b *testing.B) {
	tables := runExperiment(b, "model")
	cellMetric(b, tables[0], len(tables[0].Rows)-1, 1, "avg_correlation")
}

// BenchmarkCounterfactual regenerates the decision-trace experiment: the
// per-group decision recorder, the counterfactual re-biasing replay and the
// Eq. 2 calibration fit, for the Default and AppAware setups. Its allocs/op
// is gated by scripts/bench_smoke.sh: the recorder writes into preallocated
// rings, so the experiment's allocation count must stay O(system build), not
// O(decisions).
func BenchmarkCounterfactual(b *testing.B) {
	tables := runExperiment(b, "counterfactual")
	// Decisions table rows are setup x 4 modes; row 3 is Default scored
	// under Adaptive with High Bias.
	cellMetric(b, tables[0], 3, 5, "highbias_avoided_per_decision")
	// Calibration table row 0 is Default: MAPE % and Pearson r.
	cellMetric(b, tables[1], 0, 4, "calibration_mape_pct")
	cellMetric(b, tables[1], 0, 5, "calibration_pearson_r")
}

// BenchmarkFig8Microbenchmarks regenerates Figure 8 (microbenchmarks,
// Piz Daint style geometry).
func BenchmarkFig8Microbenchmarks(b *testing.B) {
	tables := runExperiment(b, "fig8")
	cellMetric(b, tables[0], 0, 6, "appaware_norm_median_row0")
}

// BenchmarkFig9MicrobenchmarksCori regenerates Figure 9 (microbenchmarks, Cori
// style geometry).
func BenchmarkFig9MicrobenchmarksCori(b *testing.B) {
	tables := runExperiment(b, "fig9")
	cellMetric(b, tables[0], 0, 6, "appaware_norm_median_row0")
}

// BenchmarkFig10Applications regenerates Figure 10 (application proxies plus
// the small-allocation FFT).
func BenchmarkFig10Applications(b *testing.B) {
	tables := runExperiment(b, "fig10")
	cellMetric(b, tables[0], 0, 6, "appaware_norm_median_row0")
	cellMetric(b, tables[1], 0, 6, "fft_small_appaware_norm_median")
}

// BenchmarkAblationSelector regenerates the selector design-choice ablations
// (threshold, staleness, scaling factors, counter-read overhead).
func BenchmarkAblationSelector(b *testing.B) {
	tables := runExperiment(b, "ablations")
	if len(tables) > 0 && len(tables[0].Rows) > 2 {
		cellMetric(b, tables[0], 2, 1, "alltoall_median_default_threshold")
	}
}

// BenchmarkAblationNoiseSweep regenerates the interference-intensity sweep
// (extension experiment): alltoall under the three routing configurations as
// the background job becomes more aggressive.
func BenchmarkAblationNoiseSweep(b *testing.B) {
	tables := runExperiment(b, "noisesweep")
	cellMetric(b, tables[0], 0, 1, "no_noise_default_median_cycles")
	cellMetric(b, tables[0], len(tables[0].Rows)-1, 5, "max_noise_appaware_vs_default")
}

// BenchmarkAblationHysteresis regenerates the oscillation-damping study on the
// workloads where the paper's plain algorithm fails to converge (broadcast of
// large messages, sweep3d).
func BenchmarkAblationHysteresis(b *testing.B) {
	tables := runExperiment(b, "hysteresis")
	cellMetric(b, tables[0], 0, 3, "broadcast_switches_no_hysteresis")
	cellMetric(b, tables[0], len(tables[0].Rows)-1, 3, "broadcast_switches_max_hysteresis")
}

// BenchmarkAblationSchedulerInterference regenerates the scheduler-interference
// extension: a halo3d job measured under every combination of batch-placement
// policy (contiguous, random, hybrid) and routing setup.
func BenchmarkAblationSchedulerInterference(b *testing.B) {
	tables := runExperiment(b, "sched")
	// Row 0 is contiguous/Default, row 2 is contiguous/AppAware.
	cellMetric(b, tables[0], 0, 2, "contiguous_default_median_cycles")
	if len(tables[0].Rows) > 2 {
		cellMetric(b, tables[0], 2, 3, "contiguous_appaware_norm_median")
	}
}

// BenchmarkAblationBaselines regenerates the selector-baseline comparison:
// the paper's counter-model-driven selector against the traffic-pattern-based
// classifier of the related work and the two static modes.
func BenchmarkAblationBaselines(b *testing.B) {
	tables := runExperiment(b, "baselines")
	// Rows come in groups of four setups per benchmark: Default, HighBias,
	// AppAware, PatternAware.
	if len(tables[0].Rows) >= 4 {
		cellMetric(b, tables[0], 2, 3, "pingpong_appaware_norm_median")
		cellMetric(b, tables[0], 3, 3, "pingpong_patternaware_norm_median")
	}
}

// BenchmarkAblationCollectiveAlgorithms regenerates the collective-algorithm
// ablation: how the algorithm choice (pairwise/Bruck/spread, doubling/ring/
// Rabenseifner) shifts the best routing mode.
func BenchmarkAblationCollectiveAlgorithms(b *testing.B) {
	tables := runExperiment(b, "collalgos")
	cellMetric(b, tables[0], 0, 1, "alltoall_pairwise_default_median_cycles")
	cellMetric(b, tables[0], 0, 2, "alltoall_pairwise_highbias_norm_median")
}

// BenchmarkAblationTelemetry regenerates the fabric-telemetry experiment:
// congestion time series and group-to-group traffic concentration of an
// alltoall next to a bully job under Adaptive vs Adaptive with High Bias.
func BenchmarkAblationTelemetry(b *testing.B) {
	tables := runExperiment(b, "telemetry")
	cellMetric(b, tables[0], 0, 2, "adaptive_mean_max_util")
	if len(tables[0].Rows) > 1 {
		cellMetric(b, tables[0], 1, 2, "highbias_mean_max_util")
	}
}

// BenchmarkAblationBiasSweep regenerates the non-minimal-bias sweep: the
// execution time and minimal-path share of a latency-bound and a
// bandwidth-bound workload as the UGAL bias grows from 0 to far beyond the
// ADAPTIVE_3 regime.
func BenchmarkAblationBiasSweep(b *testing.B) {
	tables := runExperiment(b, "biassweep")
	cellMetric(b, tables[0], 0, 2, "pingpong_bias0_median_cycles")
	cellMetric(b, tables[0], len(tables[0].Rows)-1, 5, "alltoall_maxbias_minimal_pct")
}

// BenchmarkMachineScaleDaint builds a Daint-class system (14 full Aries
// groups, 5376 nodes, 1344 routers) and runs a short workload on it each
// iteration. B/op is the headline: it is dominated by
// topology construction and fabric arenas, i.e. the machine-scale memory
// cost the compact CSR adjacency and lazy NIC rings exist to bound.
func BenchmarkMachineScaleDaint(b *testing.B) {
	var meanCycles float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := dragonfly.New(
			dragonfly.WithGeometry(dragonfly.Daint),
			dragonfly.WithSeed(1),
		)
		if err != nil {
			b.Fatal(err)
		}
		job, err := sys.Allocate(dragonfly.GroupStriped, 32)
		if err != nil {
			b.Fatal(err)
		}
		res, err := job.Run(&workloads.Alltoall{MessageBytes: 2 << 10, Iterations: 1},
			dragonfly.RunOptions{Iterations: 2})
		if err != nil {
			b.Fatal(err)
		}
		meanCycles = float64(res.Time()) / float64(len(res.Times))
	}
	b.ReportMetric(meanCycles, "daint_alltoall_mean_cycles")
}
