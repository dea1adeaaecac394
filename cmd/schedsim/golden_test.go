package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestSchedsimGolden pins the full output of schedsim for batch runs (every
// placement, with and without backfill, with workload-driven App jobs). Each
// hash is the sha256 of everything one flag set prints; a change to the
// scheduler that keeps the simulation exact keeps every one of them.
func TestSchedsimGolden(t *testing.T) {
	cases := []struct {
		args string
		sum  string
	}{
		{"-jobs 24 -placement hybrid -backfill",
			"f4771d3d7a51ffd9ddf34e589f0988f0021ef589665407e3982838f4c0204d7e"},
		{"-jobs 24 -placement contiguous",
			"124337b62c5e05852b80862c5b2958c57626f59fb66851e8a9bc53af0f1e0d81"},
		{"-jobs 16 -placement random -backfill -geometry medium:6",
			"fddfb871784e4a7517f29c1c6f6a7e0cb7acd80bd395217fd4fc69d767d3c146"},
		{"-jobs 16 -placement group-striped -geometry medium:3",
			"a7a00244f9ef676e21a18a10a8f6c61901345e5c6b709b92b1912b8c2e333015"},
		{"-jobs 12 -apps 0.5 -app-workloads alltoall,halo3d -geometry medium:3 -backfill",
			"dcc7ca831bcf78ba06c284eb9fed7c34f67241e7254b32d6aaedf04d00b4df5b"},
		{"-jobs 6 -geometry medium:3 -apps 1 -app-workloads alltoall,allreduce",
			"655adace8ffe770e065b99d363e0726c5d3822c4f4c3b8b9ed8425df7310c1a8"},
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(strings.Fields(tc.args), &out); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.sum {
				t.Errorf("schedsim %s output drifted:\n got %s\nwant %s\n%s", tc.args, got, tc.sum, out.String())
			}
		})
	}
}
