package telemetry_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smart/internal/chanstats"
	"smart/internal/core"
	"smart/internal/telemetry"
)

// newSim assembles a small fixed-seed tree simulation whose engine has
// the injector and fabric registered but has not run yet.
func newSim(t *testing.T, load float64) *core.Simulation {
	t.Helper()
	s, err := core.NewSimulation(core.Config{
		Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 2,
		K: 4, N: 2, Pattern: core.PatternUniform, Load: load, Seed: 7,
		Warmup: 300, Horizon: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestIntervalDeltasMatchDense drives a simulation with a sampler
// attached and checks that summing the recorded per-class interval
// deltas reproduces a dense end-of-run recomputation from the fabric's
// cumulative per-link counters — the incremental path and the one-shot
// path must agree exactly.
func TestIntervalDeltasMatchDense(t *testing.T) {
	s := newSim(t, 0.4)
	sp := telemetry.NewSampler(s.Fabric, s.Engine, telemetry.RunInfo{}, telemetry.Config{Every: 50})
	sp.Register(s.Engine)
	// Drive the engine directly: no warmup boundary, so the link
	// counters are never reset and the deltas must telescope to the
	// cumulative totals.
	s.Engine.Run(1000)

	classes, err := chanstats.ClassesFor(s.Top)
	if err != nil {
		t.Fatal(err)
	}
	dense := make([]int64, classes.Len())
	classes.Accumulate(s.Fabric.LinkFlits, dense)

	points := telemetry.RecordOf(sp).Points
	if len(points) != 20 {
		t.Fatalf("recorded %d points, want 20 (cadence 50 over 1000 cycles)", len(points))
	}
	summed := make([]int64, classes.Len())
	for _, p := range points {
		for c, d := range p.ClassFlits {
			if d < 0 {
				t.Fatalf("cycle %d class %d: negative interval delta %d", p.Cycle, c, d)
			}
			summed[c] += d
		}
	}
	for c := range dense {
		if summed[c] != dense[c] {
			t.Fatalf("class %s: summed deltas %d != dense recomputation %d",
				classes.Names[c], summed[c], dense[c])
		}
	}
}

// TestIntervalDeltasSurviveCounterReset checks the warmup-boundary
// contract: Simulation.Run resets the per-link counters between warmup
// and the measurement window, and the sampler must detect the reset
// instead of producing negative deltas.
func TestIntervalDeltasSurviveCounterReset(t *testing.T) {
	s := newSim(t, 0.4)
	// Cadence deliberately misaligned with the 300-cycle warmup so the
	// reset lands mid-interval.
	sp := telemetry.NewSampler(s.Fabric, s.Engine, telemetry.RunInfo{}, telemetry.Config{Every: 70})
	sp.Register(s.Engine)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	points := telemetry.RecordOf(sp).Points
	if len(points) == 0 {
		t.Fatal("no points recorded")
	}
	for _, p := range points {
		for c, d := range p.ClassFlits {
			if d < 0 {
				t.Fatalf("cycle %d class %d: negative delta %d across the warmup reset", p.Cycle, c, d)
			}
		}
	}
	// After the reset, the telescoped deltas must again match a dense
	// recomputation of the post-warmup totals.
	classes, err := chanstats.ClassesFor(s.Top)
	if err != nil {
		t.Fatal(err)
	}
	dense := make([]int64, classes.Len())
	classes.Accumulate(s.Fabric.LinkFlits, dense)
	// Sum deltas from the first sample at or after the reset boundary.
	// The reset happens at cycle 300; the first post-reset sample is the
	// first one whose interval start is >= 300... the sample covering
	// the reset mixes pre- and post-reset traffic, so start after it.
	summed := make([]int64, classes.Len())
	var coveredFrom int64
	for _, p := range points {
		if p.Cycle-70 >= 300 || p.Cycle == points[len(points)-1].Cycle {
			if coveredFrom == 0 {
				coveredFrom = p.Cycle - 70
			}
			for c, d := range p.ClassFlits {
				summed[c] += d
			}
		}
	}
	// The post-reset dense totals cover [300, horizon]; the summed
	// window starts at the first full post-reset interval, so summed
	// must be <= dense per class, and the total gap bounded by what one
	// partial interval can carry. The exact-equality check lives in
	// TestIntervalDeltasMatchDense; here the reset must only never
	// corrupt the stream (negative or wildly excessive deltas).
	for c := range dense {
		if summed[c] > dense[c] {
			t.Fatalf("class %s: post-reset deltas sum to %d > dense %d — reset double-counted",
				classes.Names[c], summed[c], dense[c])
		}
	}
}

// TestFinishForcesTerminalSample checks that a run whose horizon is not
// a cadence multiple still records its final state, and that a run that
// dies before its first cycle records a sidecar line readers accept.
func TestFinishForcesTerminalSample(t *testing.T) {
	s := newSim(t, 0.3)
	sp := telemetry.NewSampler(s.Fabric, s.Engine, telemetry.RunInfo{}, telemetry.Config{Every: 400})
	sp.Register(s.Engine)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	sp.Finish("")
	points := telemetry.RecordOf(sp).Points
	if len(points) == 0 {
		t.Fatal("no points recorded")
	}
	last := points[len(points)-1]
	if last.Cycle != s.Engine.Cycle() {
		t.Fatalf("terminal sample at cycle %d, want engine cycle %d", last.Cycle, s.Engine.Cycle())
	}
	// Finish is idempotent: a second call must not duplicate the sample.
	sp.Finish("")
	again := telemetry.RecordOf(sp).Points
	if len(again) != len(points) {
		t.Fatalf("second Finish added samples: %d -> %d", len(points), len(again))
	}

	s = newSim(t, 0.3)
	run := telemetry.RunInfo{Fingerprint: s.Config.Fingerprint()}
	sp = telemetry.NewSampler(s.Fabric, s.Engine, run, telemetry.Config{Every: 400})
	sp.Register(s.Engine)
	sp.Finish("failed before its first cycle")
	line, err := json.Marshal(telemetry.RecordOf(sp))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.DecodeSidecar(append(line, '\n'))
	if err != nil {
		t.Fatalf("record of a run finished at cycle 0 is refused: %v", err)
	}
	if len(recs[0].Points) != 0 || recs[0].Failure == "" {
		t.Fatalf("record of a run finished at cycle 0: %+v", recs[0])
	}
}

// TestSamplerRecordRoundTrips checks RecordOf against the sidecar
// decode path.
func TestSamplerRecordRoundTrips(t *testing.T) {
	s := newSim(t, 0.3)
	run := telemetry.RunInfo{Batch: "unit", Index: 3, Label: "tree adaptive-2vc",
		Pattern: "uniform", Seed: 7, Load: 0.3, Fingerprint: s.Config.Fingerprint()}
	sp := telemetry.NewSampler(s.Fabric, s.Engine, run, telemetry.Config{Every: 100})
	sp.Register(s.Engine)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	sp.Finish("")

	path := filepath.Join(t.TempDir(), "series.jsonl")
	sc, err := telemetry.OpenSidecar(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Write(telemetry.RecordOf(sp)); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.DecodeSidecar(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("decoded %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.RunInfo != run {
		t.Fatalf("run info round-trip: got %+v, want %+v", rec.RunInfo, run)
	}
	if rec.Schema != telemetry.Schema || rec.Every != 100 {
		t.Fatalf("schema/cadence: %q/%d", rec.Schema, rec.Every)
	}
	if len(rec.ClassNames) == 0 || len(rec.ClassNames) != len(rec.ClassLinks) {
		t.Fatalf("class metadata: names %v links %v", rec.ClassNames, rec.ClassLinks)
	}
	if want := telemetry.RecordOf(sp); !reflect.DeepEqual(rec, want) {
		t.Fatalf("decoded record differs from RecordOf:\n got %+v\nwant %+v", rec, want)
	}
}

// TestSamplerStepAllocFree is the dynamic guard behind the sampler's
// //smartlint:hotpath annotations: once the ring, scratch slices and
// the bound emit closure exist, an on-cadence engine step with the
// sampler attached performs zero heap allocations. A regression here
// usually means something on the sample path started materializing a
// closure or slice per call.
func TestSamplerStepAllocFree(t *testing.T) {
	s := newSim(t, 0.4)
	sp := telemetry.NewSampler(s.Fabric, s.Engine, telemetry.RunInfo{}, telemetry.Config{Every: 1})
	sp.Register(s.Engine)
	s.Engine.Run(200) // warm up: traffic in flight, detector state settled
	allocs := testing.AllocsPerRun(200, func() { s.Engine.Step() })
	if allocs != 0 {
		t.Fatalf("engine step with cadence-1 sampler allocates %.1f objects, want 0", allocs)
	}
}
