package core

import (
	"encoding/json"
	"fmt"
	"io"

	"smart/internal/obs"
)

// Batch is a named set of experiment configurations, loadable from JSON.
// It lets a study be described declaratively and run with cmd/batch:
//
//	{
//	  "name": "vc-study",
//	  "configs": [
//	    {"Network": "tree", "Algorithm": "adaptive", "VCs": 1, "Pattern": "uniform", "Load": 0.5},
//	    {"Network": "tree", "Algorithm": "adaptive", "VCs": 4, "Pattern": "uniform", "Load": 0.5}
//	  ]
//	}
//
// Unset fields take the paper's defaults, exactly as in the Go API.
type Batch struct {
	Name    string   `json:"name"`
	Configs []Config `json:"configs"`
}

// DecodeBatch reads a Batch from JSON, failing loudly on an unknown
// field (a typo) or on anything after the study (a second study would
// go unrun), and validates that every configuration assembles.
func DecodeBatch(r io.Reader) (Batch, error) {
	var b Batch
	if err := obs.DecodeStrict(r, &b); err != nil {
		return Batch{}, fmt.Errorf("core: decoding batch: %w", err)
	}
	if len(b.Configs) == 0 {
		return Batch{}, fmt.Errorf("core: batch %q has no configurations", b.Name)
	}
	for i, cfg := range b.Configs {
		if _, err := NewSimulation(cfg); err != nil {
			return Batch{}, fmt.Errorf("core: batch %q config %d: %w", b.Name, i, err)
		}
	}
	return b, nil
}

// Run executes every configuration of the batch, in parallel across
// workers, and returns results in config order. RunWith is the same
// under observers.
func (b Batch) Run(workers int) ([]Result, error) {
	return b.RunWith(workers, Options{})
}

// RunWith executes the batch under observers. A failing configuration
// no longer aborts the grid: every config runs (panics included — they
// are isolated to their own slot), each failure's error carries the
// batch name, the config's index and fingerprint, and how many runs
// completed, the same context is emitted as a structured event and a
// manifest failure record, and all failures come back joined alongside
// the results that did complete (failed slots hold zero Results).
func (b Batch) RunWith(workers int, opts Options) ([]Result, error) {
	opts.Batch = b.Name
	results, errs := runAll(opts.Context, indices(len(b.Configs)), workers, func(i int) (Result, error) {
		o := opts
		o.Index = i
		return RunWith(b.Configs[i], o)
	})
	err := finishGrid(opts, errs, "batch config failed", func(i int) (Config, string) {
		return b.Configs[i], fmt.Sprintf("core: batch %q config %d", b.Name, i)
	})
	return results, err
}

// EncodeBatch writes the batch as indented JSON (the inverse of
// DecodeBatch, used to scaffold config files).
func EncodeBatch(w io.Writer, b Batch) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
