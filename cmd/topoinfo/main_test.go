package main

import "testing"

func TestRunSmallTopology(t *testing.T) {
	if err := run([]string{"-geometry", "small:3", "-samples", "100"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFullAriesTopology(t *testing.T) {
	if err := run([]string{"-geometry", "aries:2", "-samples", "50"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("expected flag parse error")
	}
}

func TestRunInvalidGeometry(t *testing.T) {
	if err := run([]string{"-geometry", "aries:0"}); err == nil {
		t.Fatal("expected error for zero groups")
	}
}

func TestRunGeometryPreset(t *testing.T) {
	if err := run([]string{"-geometry", "medium", "-samples", "50"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-geometry", "no-such-rung"}); err == nil {
		t.Fatal("expected error for unknown geometry preset")
	}
}

func TestRunLadder(t *testing.T) {
	if err := run([]string{"-ladder"}); err != nil {
		t.Fatal(err)
	}
}
