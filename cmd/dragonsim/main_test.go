package main

import "testing"

func TestListWorkloads(t *testing.T) {
	if err := run([]string{"-list-workloads"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPingPongDefault(t *testing.T) {
	args := []string{"-workload", "pingpong", "-size", "1024", "-nodes", "4",
		"-geometry", "medium:2", "-iterations", "2"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestRunAlltoallAppAwareWithNoiseAndReport(t *testing.T) {
	args := []string{"-workload", "alltoall", "-size", "512", "-nodes", "8",
		"-geometry", "medium:3", "-routing", "appaware", "-iterations", "2",
		"-noise", "-noise-nodes", "6"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestRunStaticRoutingMode(t *testing.T) {
	args := []string{"-workload", "broadcast", "-size", "4096", "-nodes", "6",
		"-geometry", "medium:2", "-routing", "ADAPTIVE_3", "-iterations", "1", "-alloc", "contiguous"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-workload", "not-a-workload"},
		{"-routing", "NOT_A_MODE"},
		{"-alloc", "not-a-policy"},
		{"-nodes", "100000", "-geometry", "medium:2"},
		{"-geometry", "medium:0"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("expected error for args %v", args)
		}
	}
}

func TestRunGeometryPreset(t *testing.T) {
	if err := run([]string{"-geometry", "small:2", "-workload", "pingpong", "-nodes", "2", "-iterations", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-geometry", "bogus"}); err == nil {
		t.Fatal("expected error for unknown geometry preset")
	}
}
