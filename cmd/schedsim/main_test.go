package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSchedsimSmoke(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-jobs", "6", "-groups", "3", "-placement", "hybrid", "-backfill"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"machine:", "per-job schedule", "machine utilization", "6 submitted, 6 started, 6 finished"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestSchedsimWithoutPerJobTable(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-jobs", "4", "-groups", "2", "-per-job=false"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "per-job schedule") {
		t.Fatal("per-job table printed despite -per-job=false")
	}
}

func TestSchedsimRealApps(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-jobs", "6", "-groups", "3", "-apps", "1", "-app-workloads", "alltoall,allreduce"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"apps=100%", "alltoall", "allreduce", "ran real applications"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "(0 ran real applications)") {
		t.Fatalf("no job ran a real application:\n%s", s)
	}
	if strings.Contains(s, "warning:") {
		t.Fatalf("real-app run produced fallback warnings:\n%s", s)
	}
}

// TestSchedsimRealAppsDeterministic: the concurrent multi-job scheduler path
// produces byte-identical output for a fixed seed.
func TestSchedsimRealAppsDeterministic(t *testing.T) {
	render := func() string {
		var out bytes.Buffer
		if err := run([]string{"-jobs", "5", "-groups", "3", "-apps", "0.7"}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("two identical schedsim runs diverged:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestSchedsimRejectsUnknownPlacement(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-placement", "nope"}, &out); err == nil {
		t.Fatal("expected error for unknown placement policy")
	}
}

func TestSchedsimRejectsImpossibleMix(t *testing.T) {
	var out bytes.Buffer
	// Min job size larger than the machine.
	if err := run([]string{"-groups", "2", "-min-nodes", "9999", "-max-nodes", "9999"}, &out); err == nil {
		t.Fatal("expected error for jobs larger than the machine")
	}
}

func TestSchedsimOpenStream(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-clients", "3", "-jobs", "400", "-groups", "3", "-placement", "contiguous"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"open-stream", "400 admitted, 400 started, 400 finished",
		"per-SLO-class service", "latency", "batch", "besteffort",
		"fairness: Jain index", "machine utilization",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("open-stream output missing %q:\n%s", want, s)
		}
	}
}

func TestSchedsimOpenStreamDeterministic(t *testing.T) {
	render := func() string {
		var out bytes.Buffer
		if err := run([]string{"-clients", "4", "-jobs", "300", "-placement", "random", "-seed", "9"}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("open-stream runs with identical flags diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestSchedsimOpenStreamArrivalSpec(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-arrivals", "latency:poisson:120000:nodes=2-8;batch:gamma:500000:shape=2:nodes=4-16",
		"-jobs", "200", "-groups", "3",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "2 streams") || strings.Contains(s, "besteffort") {
		t.Fatalf("arrival spec not honoured:\n%s", s)
	}
}

func TestSchedsimOpenStreamHorizon(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-clients", "2", "-horizon", "3000000", "-groups", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "open-stream") {
		t.Fatalf("horizon flag did not enable open mode:\n%s", out.String())
	}
}

func TestSchedsimOpenStreamSLOFilter(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-clients", "4", "-jobs", "200", "-slo-classes", "latency,batch"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "besteffort") {
		t.Fatalf("-slo-classes filter leaked besteffort clients:\n%s", out.String())
	}
}

func TestSchedsimOpenStreamRejectsBadSpec(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-arrivals", "gold:zipf:100"}, &out); err == nil {
		t.Fatal("bad arrival spec was accepted")
	}
	if err := run([]string{"-clients", "2", "-slo-classes", "platinum"}, &out); err == nil {
		t.Fatal("unknown SLO class was accepted")
	}
}

// TestSchedsimEngineFlags: the -shards flag accepted by dragonsim works
// identically here, and sharding the engine does not change the schedule
// (the byte-identity contract of the sharded engine).
func TestSchedsimEngineFlags(t *testing.T) {
	render := func(extra ...string) string {
		var out bytes.Buffer
		args := append([]string{"-jobs", "5", "-groups", "3", "-apps", "0.7"}, extra...)
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	serial := render()
	if sharded := render("-shards", "2"); sharded != serial {
		t.Fatalf("-shards 2 changed the schedule:\n--- serial ---\n%s\n--- sharded ---\n%s", serial, sharded)
	}
	if auto := render("-shards", "auto"); auto != serial {
		t.Fatalf("-shards auto changed the schedule:\n--- serial ---\n%s\n--- auto ---\n%s", serial, auto)
	}
}

func TestSchedsimRejectsBadEngineFlags(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-shards", "zero"},
		{"-shards", "0"},
		{"-shards", "-2"},
	} {
		if err := run(append([]string{"-jobs", "2", "-groups", "2"}, args...), &out); err == nil {
			t.Fatalf("bad flag value %v was accepted", args)
		}
	}
}
