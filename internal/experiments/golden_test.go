package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenHashes pins the rendered quick-scale output of two representative
// experiments, captured before the typed-event-engine refactor (PR 3). The
// simulation core — event ordering, fabric timing, RNG stream consumption —
// must reproduce these tables byte-for-byte: any engine or fabric change that
// alters them is a behavioural change of the simulator, not an optimization,
// and needs an explicit decision (and a new hash) in review.
//
// The hashes cover QuickOptions() with the default seed; the trials run
// through the worker-pool harness with system reuse enabled, so this also
// guards the Reset path end to end.
var goldenHashes = map[string]string{
	"fig3":       "bb1847397d1c7e32321c93690fd84668aec9e32697c89443d92a52bc1b53dee5",
	"noisesweep": "0e43040912c901179124acad65d6ce6dd8ceda90499f65416fe613be836111bd",
	// cotenant pins the concurrent multi-job path (System.RunConcurrent with
	// real neighbor applications) end to end through the compact-arena
	// fabric; captured at PR 5 after verifying fig3/noisesweep unchanged.
	"cotenant": "8af32d8100a5ce369d0933123945100842adaa97748aca26ab323436c3028795",
	// counterfactual pins the decision-trace data path (PR 10): the per-group
	// decision rings, the counterfactual re-biasing replay, and the Eq. 2
	// calibration fit. It was re-pinned when the experiment dropped its
	// second UGAL model: the CSV of the remaining rows is byte-identical to
	// the exact rows of the previous hash; only the rendered column padding
	// changed.
	"counterfactual": "a02304c83dd81601d9546ae89899a9f31eee5772dbf2d40f340eb79104ad73f7",
}

func TestGoldenTables(t *testing.T) {
	for id, want := range goldenHashes {
		id, want := id, want
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			opts := QuickOptions()
			opts.Parallel = 1
			tables, err := Run(id, opts)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(renderAll(t, tables)))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("%s quick-scale output drifted from the golden hash:\n got %s\nwant %s\n"+
					"The simulation core no longer reproduces pre-refactor results byte-for-byte. "+
					"If the model change is intentional, update goldenHashes.", id, got, want)
			}
		})
	}
}
