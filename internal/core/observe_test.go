package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"smart/internal/obs"
)

// smallCfg is a fast tree experiment for observability tests.
func smallCfg() Config {
	return Config{
		Network: NetworkTree, Algorithm: AlgAdaptive, VCs: 2, K: 4, N: 2,
		Pattern: PatternUniform, Load: 0.3, Seed: 3, Warmup: 300, Horizon: 1500,
	}
}

func TestFingerprintStableAndDiscriminating(t *testing.T) {
	a, b := smallCfg(), smallCfg()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal configs disagree on fingerprint")
	}
	b.Load = 0.4
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different loads share a fingerprint")
	}
	// Unset fields and their explicit defaults are the same experiment.
	if (Config{}).Fingerprint() != (Config{}).WithDefaults().Fingerprint() {
		t.Fatal("defaulting changed the fingerprint")
	}
	if fp := a.Fingerprint(); len(fp) != 16 {
		t.Fatalf("fingerprint %q is not a 16-hex-digit hash", fp)
	}
}

func TestRunWithMatchesRun(t *testing.T) {
	plain, err := Run(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	observed, err := RunWith(smallCfg(), Options{Profiler: obs.NewStageProfiler()})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Sample != observed.Sample {
		t.Fatalf("instrumentation changed the measurement:\nplain    %+v\nobserved %+v", plain.Sample, observed.Sample)
	}
}

// TestRunWithProfilerSeesEveryStage checks that the profiler reports
// the traffic stage and the fabric's five stages once per cycle, on one
// shard and on two: every shard count runs the same stages.
func TestRunWithProfilerSeesEveryStage(t *testing.T) {
	cfg := smallCfg()
	for _, shards := range []int{1, 2} {
		if s, err := NewSimulationShards(cfg, shards); err != nil || s.Shards != shards {
			t.Fatalf("shards=%d: assembled %v shards, err %v", shards, s, err)
		}
		p := obs.NewStageProfiler()
		if _, err := RunWith(cfg, Options{Profiler: p, Shards: shards}); err != nil {
			t.Fatal(err)
		}
		report := p.Report()
		names := make(map[string]int64, len(report))
		for _, st := range report {
			names[st.Name] = st.Ticks
		}
		for _, want := range []string{"traffic", "link", "crossbar", "routing", "injection", "credits"} {
			if names[want] != cfg.Horizon {
				t.Fatalf("shards=%d: stage %q ticked %d times, want %d (report %v)", shards, want, names[want], cfg.Horizon, names)
			}
		}
	}
}

func TestSweepWithManifestProgressAndLogs(t *testing.T) {
	loads := []float64{0.1, 0.2, 0.3}
	var manifest, logs bytes.Buffer
	progress := obs.NewProgress(nil, len(loads), time.Hour)
	opts := Options{
		Logger:   obs.NewLogger(&logs, obs.FormatJSON),
		Progress: progress,
		Manifest: obs.NewManifestWriter(&manifest),
	}
	swept, err := SweepWith(smallCfg(), loads, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != len(loads) {
		t.Fatalf("%d results", len(swept))
	}

	if s := progress.Snapshot(); s.Completed != int64(len(loads)) {
		t.Fatalf("progress saw %d/%d runs", s.Completed, len(loads))
	}

	recs, err := obs.DecodeManifest(&manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(loads) {
		t.Fatalf("%d manifest records for %d runs", len(recs), len(loads))
	}
	seen := make(map[int]bool)
	for _, rec := range recs {
		seen[rec.Index] = true
		if rec.Load != loads[rec.Index] {
			t.Fatalf("record %d has load %v, want %v", rec.Index, rec.Load, loads[rec.Index])
		}
		if rec.Seed != 3 || rec.Pattern != PatternUniform || rec.Fingerprint == "" {
			t.Fatalf("record identity incomplete: %+v", rec)
		}
		if rec.Sample != swept[rec.Index].Sample {
			t.Fatalf("record %d sample diverges from the result", rec.Index)
		}
		if rec.Cycles != 1500 || rec.WallMS <= 0 {
			t.Fatalf("record %d cost fields: cycles %d, wall %v", rec.Index, rec.Cycles, rec.WallMS)
		}
		// The embedded config must reassemble to the same experiment.
		var cfg Config
		if err := json.Unmarshal(rec.Config, &cfg); err != nil {
			t.Fatal(err)
		}
		if cfg.Fingerprint() != rec.Fingerprint {
			t.Fatalf("record %d config does not hash to its fingerprint", rec.Index)
		}
	}
	if len(seen) != len(loads) {
		t.Fatalf("manifest indices %v do not cover the grid", seen)
	}

	if !strings.Contains(logs.String(), `"msg":"sweep starting"`) ||
		!strings.Contains(logs.String(), `"msg":"run complete"`) {
		t.Fatalf("structured events missing:\n%s", logs.String())
	}
}

func TestBatchRunErrorCarriesContext(t *testing.T) {
	bad := Config{Network: NetworkTree, Algorithm: AlgDuato} // duato is undefined on the tree
	b := Batch{Name: "mixed", Configs: []Config{smallCfg(), bad}}
	var logs bytes.Buffer
	_, err := b.RunWith(2, Options{Logger: obs.NewLogger(&logs, obs.FormatJSON)})
	if err == nil {
		t.Fatal("invalid config did not fail")
	}
	for _, want := range []string{`batch "mixed"`, "config 1", bad.Fingerprint(), "runs completed"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	if !strings.Contains(logs.String(), `"msg":"batch config failed"`) ||
		!strings.Contains(logs.String(), `"index":1`) {
		t.Fatalf("failure event missing context:\n%s", logs.String())
	}
}

func TestBatchRunWithStampsManifest(t *testing.T) {
	b := Batch{Name: "stamped", Configs: []Config{smallCfg(), smallCfg()}}
	var manifest bytes.Buffer
	if _, err := b.RunWith(2, Options{Manifest: obs.NewManifestWriter(&manifest)}); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.DecodeManifest(&manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	for _, rec := range recs {
		if rec.Batch != "stamped" {
			t.Fatalf("record not stamped with the batch name: %+v", rec)
		}
	}
}
