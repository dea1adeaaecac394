package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSchedsimSmoke(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-jobs", "6", "-geometry", "medium:3", "-placement", "hybrid", "-backfill"}, &out)
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
	err := run([]string{"-jobs", "4", "-geometry", "medium:2", "-per-job=false"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "per-job schedule") {
		t.Fatal("per-job table printed despite -per-job=false")
	}
}

func TestSchedsimRealApps(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-jobs", "6", "-geometry", "medium:3", "-apps", "1", "-app-workloads", "alltoall,allreduce"}, &out)
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

// TestSchedsimRejectsUnknownAppWorkload: an app job naming an unregistered
// workload fails its submission, so the run exits with an error instead of
// running a traffic generator in its place.
func TestSchedsimRejectsUnknownAppWorkload(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-jobs", "4", "-geometry", "medium:2", "-apps", "1", "-app-workloads", "no-such-workload"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown workload "no-such-workload"`) {
		t.Fatalf("error %v, want the unknown workload named", err)
	}
}

// TestSchedsimRealAppsDeterministic: the concurrent multi-job scheduler path
// produces byte-identical output for a fixed seed.
func TestSchedsimRealAppsDeterministic(t *testing.T) {
	render := func() string {
		var out bytes.Buffer
		if err := run([]string{"-jobs", "5", "-geometry", "medium:3", "-apps", "0.7"}, &out); err != nil {
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
	if err := run([]string{"-geometry", "medium:2", "-min-nodes", "9999", "-max-nodes", "9999"}, &out); err == nil {
		t.Fatal("expected error for jobs larger than the machine")
	}
}
