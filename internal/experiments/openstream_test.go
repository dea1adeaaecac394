package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// openstreamGolden pins the quick-scale openstream table, captured at PR 7.
// The same hash must come out of the serial harness and the parallel worker
// pool — that is the determinism contract of the open-arrival subsystem,
// checked here end to end.
const openstreamGolden = "61530aa83745d1789f227d080c12543238d235cb862755a66e483b82bd22a356"

func TestOpenStreamGolden(t *testing.T) {
	cases := []struct {
		name     string
		parallel int
	}{
		{"serial", 1},
		{"parallel", 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opts := QuickOptions()
			opts.Parallel = tc.parallel
			tables, err := Run("openstream", opts)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(renderAll(t, tables)))
			if got := hex.EncodeToString(sum[:]); got != openstreamGolden {
				t.Fatalf("openstream output drifted (%s):\n got %s\nwant %s\n"+
					"Serial and parallel runs must both reproduce the golden table "+
					"byte-for-byte. If the model change is intentional, update openstreamGolden.",
					tc.name, got, openstreamGolden)
			}
		})
	}
}
