package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
)

// goldenSeed is the only seed whose digests are pinned. Runs with another
// seed check reproducibility instead: the same trial run twice must hash the
// same.
const goldenSeed = 1

// goldenFile is the pinned output of one workload at goldenSeed: per-trial
// digests keyed "trial-<i>", or per-experiment table hashes keyed by id.
type goldenFile struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func goldenPath(workload string) string { return filepath.Join("golden", workload+".json") }

// loadGolden reads the pinned digests of a workload.
func loadGolden(workload string) (map[string]string, error) {
	b, err := os.ReadFile(goldenPath(workload))
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(workload), err)
	}
	if g.Seed != goldenSeed || len(g.Digests) == 0 {
		return nil, fmt.Errorf("%s: want digests for seed %d", goldenPath(workload), goldenSeed)
	}
	return g.Digests, nil
}

// writeGolden pins digests as the workload's golden output.
func writeGolden(workload string, digests map[string]string) error {
	b, err := json.MarshalIndent(goldenFile{Seed: goldenSeed, Digests: digests}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(workload)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(workload), append(b, '\n'), 0o644)
}

// mismatches lists, in key order, every digest of got that differs from the
// pinned digest under the same key. Keys pinned but not produced by this run
// (a shorter run) are not compared.
func mismatches(got, want map[string]string) []error {
	var errs []error
	for _, k := range slices.Sorted(maps.Keys(got)) {
		if w, ok := want[k]; ok && w != got[k] {
			errs = append(errs, fmt.Errorf("%s: digest %.12s… differs from golden %.12s…", k, got[k], w))
		}
	}
	return errs
}

// verifyGolden checks a seed-1 run against the pinned digests, or pins them
// when cfg.pin is set. Other seeds have nothing pinned.
func verifyGolden(o *outcome, workload string, cfg runConfig, got map[string]string) error {
	if cfg.seed != goldenSeed {
		return nil
	}
	if cfg.pin {
		return writeGolden(workload, got)
	}
	want, err := loadGolden(workload)
	if err != nil {
		o.fail(err)
		return nil
	}
	for _, err := range mismatches(got, want) {
		o.fail(err)
	}
	return nil
}
