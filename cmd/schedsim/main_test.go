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
