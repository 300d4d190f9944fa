package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smart/internal/resilience"
	"smart/internal/telemetry"
)

func telemetryTestConfig() Config {
	return Config{
		Network: NetworkTree, Algorithm: AlgAdaptive, VCs: 2,
		K: 4, N: 2, Pattern: PatternUniform, Load: 0.4, Seed: 7,
		Warmup: 300, Horizon: 1500,
	}
}

// TestTelemetryDoesNotChangeBehavior is the observation-only contract:
// the same config run bare and run under a full telemetry harness must
// produce bit-identical simulated state — same measurement sample, same
// counters, same end-of-run state hash. This is the golden-fixture
// guarantee restated against the telemetry path specifically.
func TestTelemetryDoesNotChangeBehavior(t *testing.T) {
	cfg := telemetryTestConfig()

	bare, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bareRes, err := bare.Run()
	if err != nil {
		t.Fatal(err)
	}

	sc, err := telemetry.OpenSidecar(filepath.Join(t.TempDir(), "series.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	instr, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	instrRes, err := instr.RunWith(Options{Telemetry: &telemetry.Options{
		Server:  telemetry.NewServer(),
		Sidecar: sc,
		Config:  telemetry.Config{Every: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(bareRes.Sample, instrRes.Sample) {
		t.Fatalf("telemetry changed the measurement sample:\nbare  %+v\ninstr %+v", bareRes.Sample, instrRes.Sample)
	}
	if bare.Fabric.Counters() != instr.Fabric.Counters() {
		t.Fatalf("telemetry changed the counters:\nbare  %+v\ninstr %+v", bare.Fabric.Counters(), instr.Fabric.Counters())
	}
	b, i := bare.Fabric.Observe(), instr.Fabric.Observe()
	if b.StateHash != i.StateHash {
		t.Fatalf("telemetry changed end-of-run fabric state: hash %x != %x", b.StateHash, i.StateHash)
	}
}

// TestTelemetryDisabledAddsNoStage is the structural half of the
// overhead guard: with no telemetry attached, RunWith must not register
// any extra engine stage — the uninstrumented path stays the
// uninstrumented path (the wall-clock half is BenchmarkUniform vs
// BenchmarkUniformTelemetry in the repo root).
func TestTelemetryDisabledAddsNoStage(t *testing.T) {
	s, err := NewSimulation(telemetryTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := s.Engine.Stages()
	if _, err := s.RunWith(Options{}); err != nil {
		t.Fatal(err)
	}
	if got := s.Engine.Stages(); got != before {
		t.Fatalf("zero Options registered %d extra stages", got-before)
	}

	s2, err := NewSimulation(telemetryTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	before = s2.Engine.Stages()
	if _, err := s2.RunWith(Options{Telemetry: &telemetry.Options{}}); err != nil {
		t.Fatal(err)
	}
	if got := s2.Engine.Stages(); got != before+1 {
		t.Fatalf("telemetry registered %d extra stages, want exactly 1 (the sampler)", got-before)
	}
}

// TestResumedRunDoesNotDuplicateSidecar checks the resume contract end
// to end at the run level: a checkpointed config replayed with -resume
// never re-runs, so it never re-records, and the resumed sidecar holds
// the run's series exactly once.
func TestResumedRunDoesNotDuplicateSidecar(t *testing.T) {
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "ckpt")
	scPath := filepath.Join(dir, "series.jsonl")
	cfg := telemetryTestConfig()

	ckpt, err := resilience.Open(ckptPath, false)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := telemetry.OpenSidecar(scPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWith(cfg, Options{Checkpoint: ckpt, Telemetry: &telemetry.Options{Sidecar: sc}}); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}

	ckpt, err = resilience.Open(ckptPath, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	sc, err = telemetry.OpenSidecar(scPath, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := RunWith(cfg, Options{Checkpoint: ckpt, Telemetry: &telemetry.Options{Sidecar: sc}}); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(scPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.DecodeSidecar(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("resumed sidecar holds %d records, want exactly 1", len(recs))
	}
	if recs[0].Fingerprint != cfg.WithDefaults().Fingerprint() {
		t.Fatalf("record fingerprint %s != config fingerprint %s", recs[0].Fingerprint, cfg.WithDefaults().Fingerprint())
	}
}
