package core

import (
	"encoding/json"
	"fmt"

	"smart/internal/obs"
)

// ResultFromRecord rebuilds a Result from a completed manifest record:
// the config is decoded and re-defaulted, verified against the record's
// fingerprint, and the absolute-unit figures are recomputed from the
// stored sample through the same cost-model path a live run uses. This
// is how a resumed grid hands back checkpointed runs without
// re-simulating them.
func ResultFromRecord(rec obs.RunRecord) (Result, error) {
	if rec.Failure != "" {
		return Result{}, fmt.Errorf("core: record %s is a failure record (%s)", rec.Fingerprint, rec.Failure)
	}
	var cfg Config
	if err := json.Unmarshal(rec.Config, &cfg); err != nil {
		return Result{}, fmt.Errorf("core: decoding record config: %w", err)
	}
	cfg = cfg.WithDefaults()
	if fp := cfg.Fingerprint(); fp != rec.Fingerprint {
		return Result{}, fmt.Errorf("core: record fingerprint %s does not match its embedded config (%s)", rec.Fingerprint, fp)
	}
	top, err := cfg.buildTopology()
	if err != nil {
		return Result{}, err
	}
	return newResult(cfg, top, rec.Sample)
}
