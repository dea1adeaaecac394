package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"dragonfly"
)

func TestNoisescanSmoke(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-workload", "alltoall", "-size", "2048", "-nodes", "8", "-geometry", "medium:3",
		"-noise", "bully", "-noise-nodes", "6", "-iterations", "1", "-interval", "20000",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"measured job", "background job", "samples:", "group-to-group"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestNoisescanNoNoiseAppAware(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-workload", "pingpong", "-size", "4096", "-nodes", "4", "-geometry", "medium:2",
		"-noise", "none", "-routing", "appaware", "-iterations", "1",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "iteration 0") {
		t.Fatalf("output missing iteration line:\n%s", out.String())
	}
}

func TestNoisescanRejectsUnknownWorkload(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workload", "nope"}, &out); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestNoisescanRejectsUnknownRouting(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-routing", "nope", "-nodes", "4", "-geometry", "medium:2"}, &out); err == nil {
		t.Fatal("expected error for unknown routing mode")
	}
}

func TestNoisescanRejectsJobLargerThanMachine(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-nodes", "65", "-geometry", "medium:2", "-noise", "none", "-iterations", "1"}, &out)
	if !errors.Is(err, dragonfly.ErrJobTooLarge) {
		t.Fatalf("a 65-node job on the 64-node machine returned %v, want ErrJobTooLarge", err)
	}
}

func TestNoisescanCSVExport(t *testing.T) {
	var out bytes.Buffer
	path := t.TempDir() + "/telemetry.csv"
	err := run([]string{
		"-workload", "barrier", "-nodes", "4", "-geometry", "medium:2", "-noise", "none",
		"-iterations", "1", "-csv", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "written to") {
		t.Fatalf("CSV confirmation missing:\n%s", out.String())
	}
}

func TestNoisescanCompareRoutingModes(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-workload", "alltoall", "-size", "1024", "-nodes", "6", "-geometry", "medium:2",
		"-noise", "uniform", "-noise-nodes", "4", "-iterations", "1",
		"-routing", "ADAPTIVE_0,ADAPTIVE_3", "-parallel", "2", "-timeout", "5m",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"routing comparison", "ADAPTIVE_0", "ADAPTIVE_3", "median cycles"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("comparison output missing %q:\n%s", want, out.String())
		}
	}
}

func TestNoisescanCompareRejectsUnknownMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-routing", "ADAPTIVE_0,nope", "-nodes", "4", "-geometry", "medium:2"}, &out); err == nil {
		t.Fatal("expected error for unknown routing mode in a comparison list")
	}
}
