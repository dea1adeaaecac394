package experiments

import (
	"strings"
	"testing"

	"dragonfly/internal/trace"
)

// renderAll renders every table of an experiment to one string.
func renderAll(t *testing.T, tables []*trace.Table) string {
	t.Helper()
	var b strings.Builder
	for _, tbl := range tables {
		if err := tbl.Render(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestParallelOutputMatchesSerial is the harness acceptance criterion: for a
// fixed seed, every experiment's tables must be byte-identical whether the
// trials run on one worker or on eight.
func TestParallelOutputMatchesSerial(t *testing.T) {
	ids := []string{"fig3", "fig4", "fig7", "noisesweep", "biassweep", "cotenant", "fullmachine", "counterfactual"}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			serialOpts := QuickOptions()
			serialOpts.Parallel = 1
			serial, err := Run(id, serialOpts)
			if err != nil {
				t.Fatal(err)
			}
			checkPinned(t, id, serial)
			parallelOpts := QuickOptions()
			parallelOpts.Parallel = 8
			parallel, err := Run(id, parallelOpts)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial) != len(parallel) {
				t.Fatalf("table count differs: serial %d, parallel %d", len(serial), len(parallel))
			}
			s, p := renderAll(t, serial), renderAll(t, parallel)
			if s != p {
				t.Fatalf("parallel output differs from serial output for %s:\n--- serial ---\n%s\n--- parallel ---\n%s", id, s, p)
			}
		})
	}
}
