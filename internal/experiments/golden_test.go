package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dragonfly/internal/trace"
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

// pinnedHashes pins the rendered output of the experiments goldenHashes does
// not cover, captured when the harness's declarative trials moved onto
// dragonfly.Job.Compare (the commit before measured exactly these bytes).
// Each hash is checked by the test that already runs its experiment with the
// same options, so pinning them runs no experiment twice: QuickOptions() for
// the first group, QuickOptions() with Iterations = 3 (as the smoke tests run
// them) for the second.
var pinnedHashes = map[string]string{
	"tab1":        "1dc4d31098c77ee2b75de3f00e98f93f9620e3ec9fa9e38435f82e7bd2752375",
	"fig4":        "35967e7930d68630bf0f3adf4fac24fbfde023ce1de9cb8887e4979e477ef883",
	"fig5":        "4377b5b6ef1712ba434f1e91f62a4a9e09dca5efbce912a2715599c49fbde8bd",
	"fig7":        "405d9bf932d56ed901405155cab65c89500f1df636fbfb0546ed8a0048269073",
	"model":       "21c3c226c3ba810a58b58186f5725980f7d8f0396d862ee98501f1a27d1102c4",
	"fig8":        "7972d8bd9465e45506c032fa82cf79bcbdaf08a5dd889d6aee1de3fb6f7e0eb7",
	"fig9":        "641c9c3347c8f76b2dae5a9ea9b5cb46366d0b8781622b72a9563cffd790171c",
	"fig10":       "fca769533f977686d7e8ef842757b0703640dfca828090c36d679e90239aa72d",
	"hysteresis":  "87df42109b7968ef07d39cd0fd5de52de07a677bfc998496718e22a403eea80c",
	"ablations":   "4c346a07e0ef20c36caa69144d0f12949f7f7ee4ddad87208122701b206ec4bc",
	"fullmachine": "27a380c19c7fee964936d44bafeefc736b0f1636a579df9bde804027079aaf87",
	"biassweep":   "a5b6523fe6ac688de2c50a0908bb386c0eb29fe772cfd769c56ce5307c8ad443",
	// Iterations = 3.
	"sched":     "3b4bb689636d3be386978609933318f0fb97fe2ce2c9233119781885034e4aa1",
	"baselines": "db2cb845dccfc971c112b20f333a8d54cc2b42ae83a58b81d5522982782fa076",
	"collalgos": "4acda6a5f7275b47151af8f994062cdc8e2d59594c35662344018516c8ec176d",
	"telemetry": "947e4e6ecd7430b1abfeab281095c4742dafffc0d36b8df7fb5fbea91967b30b",
}

// checkPinned fails the test when tables do not render to the pinned hash of
// experiment id; experiments without a pinned hash pass.
func checkPinned(t *testing.T, id string, tables []*trace.Table) {
	t.Helper()
	want, ok := pinnedHashes[id]
	if !ok {
		return
	}
	sum := sha256.Sum256([]byte(renderAll(t, tables)))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("%s output drifted from the pinned hash:\n got %s\nwant %s", id, got, want)
	}
}
