package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestSchedsimGolden pins the full output of schedsim for batch runs (every
// placement, with and without backfill). Each hash is the sha256 of
// everything one flag set prints; a change to the scheduler that keeps the
// simulation exact keeps every one of them.
func TestSchedsimGolden(t *testing.T) {
	cases := []struct {
		args string
		sum  string
	}{
		{"-jobs 24 -placement hybrid -backfill",
			"41558e4c0e0460e315ecf8bbf1da0247436e7825cc3c1a231dddbbf46513ede8"},
		{"-jobs 24 -placement contiguous",
			"54712b05fd217b5c4a1b972f41e6ef63fb193cddf1c6ecfc8e3dcc9bf2323c84"},
		{"-jobs 16 -placement random -backfill -geometry medium:6",
			"f5b4d7ce2104c0fad19cd2d7d1e6003fcd98a2a5e4146ae33c5f5757aa79a5a0"},
		{"-jobs 16 -placement group-striped -geometry medium:3",
			"e4378e1a3858ec03d9d1193bc2fbca60cacbac2d808be97fffd2c93c5f36b76c"},
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
