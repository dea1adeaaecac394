package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestRecordThenReplay(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	var out bytes.Buffer
	err := run([]string{
		"-mode", "record", "-workload", "alltoall", "-size", "2048",
		"-nodes", "8", "-geometry", "medium:3", "-trace", trace,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "recorded alltoall") || !strings.Contains(out.String(), "trace written") {
		t.Fatalf("record output unexpected:\n%s", out.String())
	}

	out.Reset()
	err = run([]string{
		"-mode", "replay", "-trace", trace, "-geometry", "medium:3",
		"-routing", "ADAPTIVE_3", "-time-scale", "0.5",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replayed 56 of 56 messages") {
		t.Fatalf("replay output unexpected (8-rank pairwise alltoall has 56 messages):\n%s", out.String())
	}
}

// TestReplayRejectsNonPositiveTimeScale: a recorded trace replayed at
// -time-scale 0 or below is an error, not a replay at the original pacing
// under a report that prints the scale given.
func TestReplayRejectsNonPositiveTimeScale(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-mode", "record", "-workload", "alltoall", "-size", "1024",
		"-nodes", "4", "-geometry", "medium:2", "-trace", trace}, &out); err != nil {
		t.Fatal(err)
	}
	for _, scale := range []string{"0", "-3"} {
		out.Reset()
		err := run([]string{"-mode", "replay", "-trace", trace, "-geometry", "medium:2", "-time-scale", scale}, &out)
		if err == nil || !strings.Contains(err.Error(), "-time-scale "+scale) {
			t.Errorf("replay at -time-scale %s returned %v, want an error naming it\n%s", scale, err, out.String())
		}
	}
}

func TestReplayMissingTraceFails(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-mode", "replay", "-trace", filepath.Join(t.TempDir(), "missing.jsonl")}, &out); err == nil {
		t.Fatal("expected error for missing trace file")
	}
}

func TestUnknownModeFails(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-mode", "bogus"}, &out); err == nil {
		t.Fatal("expected error for unknown mode")
	}
}

func TestUnknownRoutingFails(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-routing", "bogus"}, &out); err == nil {
		t.Fatal("expected error for unknown routing mode")
	}
}
