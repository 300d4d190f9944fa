package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"smart/internal/cost"
)

// small returns a fast-to-simulate configuration for tests: a 16-node
// network with short horizons.
func small(network NetworkKind, alg string, vcs int) Config {
	cfg := Config{
		Network: network, Algorithm: alg, VCs: vcs,
		Load: 0.2, Seed: 7, Warmup: 300, Horizon: 2000,
		WatchdogCycles: 20000,
	}
	if network == NetworkTree {
		cfg.K, cfg.N = 4, 2
	} else {
		cfg.K, cfg.N = 4, 2
	}
	return cfg
}

func TestWithDefaultsPaperParameters(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Network != NetworkTree || c.K != 4 || c.N != 4 {
		t.Fatalf("default topology %s %d-ary %d, want 4-ary 4-tree", c.Network, c.K, c.N)
	}
	if c.Algorithm != AlgAdaptive || c.VCs != 4 || c.BufDepth != 4 {
		t.Fatalf("default algorithm %+v", c)
	}
	if c.PacketBytes != 64 || c.Warmup != 2000 || c.Horizon != 20000 || c.InjLanes != 1 {
		t.Fatalf("default methodology %+v", c)
	}
	cube := Config{Network: NetworkCube}.WithDefaults()
	if cube.K != 16 || cube.N != 2 || cube.Algorithm != AlgDuato {
		t.Fatalf("default cube %+v", cube)
	}
}

func TestConfigLabel(t *testing.T) {
	if got := (Config{Network: NetworkCube, Algorithm: AlgDuato}).Label(); got != "cube duato" {
		t.Fatalf("Label = %q", got)
	}
	if got := (Config{Network: NetworkTree, Algorithm: AlgAdaptive, VCs: 2}).Label(); got != "tree adaptive-2vc" {
		t.Fatalf("Label = %q", got)
	}
}

func TestPaperConfigs(t *testing.T) {
	cfgs := PaperConfigs()
	if len(cfgs) != 5 {
		t.Fatalf("%d paper configs, want 5", len(cfgs))
	}
	labels := map[string]bool{}
	for _, c := range cfgs {
		c = c.WithDefaults()
		labels[c.Label()] = true
		if _, err := NewSimulation(c); err != nil {
			t.Fatalf("paper config %s does not assemble: %v", c.Label(), err)
		}
	}
	for _, want := range []string{"cube deterministic", "cube duato", "tree adaptive-1vc", "tree adaptive-2vc", "tree adaptive-4vc"} {
		if !labels[want] {
			t.Fatalf("missing paper config %q", want)
		}
	}
}

func TestInvalidConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"unknown network", Config{Network: "butterfly"}, "unknown network"},
		{"unknown pattern", Config{Pattern: "blizzard"}, "unknown traffic pattern"},
		{"cube alg on tree", Config{Network: NetworkTree, Algorithm: AlgDuato}, "not defined on the tree"},
		{"tree alg on cube", Config{Network: NetworkCube, Algorithm: AlgAdaptive}, "not defined on the cube"},
		{"cube with 2 vcs", Config{Network: NetworkCube, Algorithm: AlgDuato, VCs: 2}, "4 virtual channels"},
		{"tornado on tree", Config{Network: NetworkTree, Pattern: PatternTornado}, "defined on the cube"},
		{"ragged packet", Config{Network: NetworkCube, PacketBytes: 30}, "whole number"},
		// Flit sequence numbers are uint16: a packet of 65536 two-byte
		// tree flits would wrap them.
		{"packet past uint16 flits", Config{PacketBytes: 2 * (math.MaxUint16 + 1)}, "PacketFlits must be in [1,65535]"},
		// Windows the engine cannot run, or that overflow the fabric's
		// int32 flit stamps, are assembly errors rather than Run panics.
		{"negative warmup", Config{Warmup: -5, Horizon: 1000}, "measurement window"},
		{"horizon before warmup", Config{Warmup: 300, Horizon: 200}, "measurement window"},
		{"horizon equals warmup", Config{Warmup: 300, Horizon: 300}, "measurement window"},
		{"horizon before default warmup", Config{Horizon: DefaultWarmup / 2}, "measurement window"},
		{"horizon past int32 stamps", Config{Warmup: 300, Horizon: math.MaxInt32 + 1}, "measurement window"},
		// NaN fails every ordered comparison, so the range checks must
		// be written to reject it rather than to catch out-of-range values.
		{"NaN load", Config{Load: math.NaN()}, "packet rate NaN"},
		{"NaN hotspot fraction", Config{Pattern: PatternHotspot, HotspotFraction: math.NaN()}, "hotspot fraction NaN"},
		{"NaN rotating hotspot fraction", Config{Pattern: PatternHotspot, HotspotPeriod: 100, HotspotFraction: math.NaN()}, "hotspot fraction NaN"},
		{"NaN burst dwell", Config{Burst: "mmpp:NaN:300:2"}, "mmpp dwell times must be finite"},
	}
	for _, tc := range cases {
		_, err := NewSimulation(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestRunBelowSaturationAcceptsOffered(t *testing.T) {
	for _, cfg := range []Config{
		small(NetworkCube, AlgDeterministic, 4),
		small(NetworkCube, AlgDuato, 4),
		small(NetworkTree, AlgAdaptive, 1),
		small(NetworkTree, AlgAdaptive, 2),
		small(NetworkTree, AlgAdaptive, 4),
	} {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label(), err)
		}
		if math.Abs(res.Sample.Accepted-cfg.Load) > 0.05 {
			t.Errorf("%s: accepted %.3f at offered %.2f below saturation", cfg.Label(), res.Sample.Accepted, cfg.Load)
		}
		if res.Sample.AvgLatency <= 0 || res.Sample.PacketsDelivered == 0 {
			t.Errorf("%s: empty sample %+v", cfg.Label(), res.Sample)
		}
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cfg := small(NetworkCube, AlgDuato, 4)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Sample, b.Sample) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a.Sample, b.Sample)
	}
	cfg.Seed = 8
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Sample, c.Sample) {
		t.Fatal("different seeds produced identical samples")
	}
}

func TestSweepMatchesIndividualRuns(t *testing.T) {
	cfg := small(NetworkTree, AlgAdaptive, 2)
	loads := []float64{0.1, 0.3}
	swept, err := Sweep(cfg, loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != 2 {
		t.Fatalf("%d results", len(swept))
	}
	for i, load := range loads {
		cfg.Load = load
		single, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single.Sample, swept[i].Sample) {
			t.Fatalf("sweep result %d differs from individual run", i)
		}
	}
}

func TestSweepWorkerCountIrrelevant(t *testing.T) {
	cfg := small(NetworkCube, AlgDeterministic, 4)
	loads := []float64{0.1, 0.2, 0.3}
	serial, err := Sweep(cfg, loads, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(cfg, loads, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i].Sample, parallel[i].Sample) {
			t.Fatalf("load %v: serial and parallel sweeps differ", loads[i])
		}
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	cfg := small(NetworkTree, AlgAdaptive, 2)
	cfg.Pattern = "no-such-pattern"
	if _, err := Sweep(cfg, []float64{0.1, 0.2}, 2); err == nil {
		t.Fatal("sweep swallowed a configuration error")
	}
}

func TestReplicateWorkerCountIrrelevant(t *testing.T) {
	cfg := small(NetworkCube, AlgDuato, 4)
	cfg.Load = 0.3
	serial, err := Replicate(cfg, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Replicate(cfg, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.MeanAccepted != parallel.MeanAccepted || serial.MeanLatencyCycles != parallel.MeanLatencyCycles {
		t.Fatal("replication results depend on worker count")
	}
}

func TestWithDefaultsIdempotent(t *testing.T) {
	cfgs := append(PaperConfigs(), Config{}, Config{Network: NetworkMesh})
	for _, cfg := range cfgs {
		once := cfg.WithDefaults()
		twice := once.WithDefaults()
		if once != twice {
			t.Fatalf("WithDefaults not idempotent for %+v", cfg)
		}
	}
}

func TestMeshLabelAndTornado(t *testing.T) {
	cfg := Config{Network: NetworkMesh, Algorithm: AlgDeterministic, VCs: 4, K: 4, N: 2,
		Pattern: PatternTornado, Load: 0.2, Warmup: 300, Horizon: 1500}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Label() != "mesh deterministic" {
		t.Fatalf("label %q", res.Config.Label())
	}
	if res.Sample.PacketsDelivered == 0 {
		t.Fatal("tornado on the mesh delivered nothing")
	}
}

func TestDrainEmptiesNetwork(t *testing.T) {
	cfg := small(NetworkTree, AlgAdaptive, 1)
	cfg.Load = 0.8 // beyond 1vc saturation: queues build up
	s, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Drain(500000) {
		t.Fatal("network failed to drain after stopping injection")
	}
	c := s.Fabric.Counters()
	if c.PacketsDelivered != c.PacketsCreated {
		t.Fatalf("after drain: %d delivered of %d created", c.PacketsDelivered, c.PacketsCreated)
	}
}

func TestTimingSelection(t *testing.T) {
	tree := Config{Network: NetworkTree, VCs: 2}
	tm, err := tree.Timing()
	if err != nil {
		t.Fatal(err)
	}
	if tm != cost.TreeAdaptive(4, 2) {
		t.Fatalf("tree timing %+v", tm)
	}
	det := Config{Network: NetworkCube, Algorithm: AlgDeterministic}
	tm, err = det.Timing()
	if err != nil {
		t.Fatal(err)
	}
	if tm != cost.CubeDeterministicN(2) {
		t.Fatalf("cube det timing %+v", tm)
	}
	duato := Config{Network: NetworkCube, Algorithm: AlgDuato}
	tm, err = duato.Timing()
	if err != nil {
		t.Fatal(err)
	}
	if tm != cost.CubeDuatoN(2) {
		t.Fatalf("cube duato timing %+v", tm)
	}
	// Shapes outside the cost model are errors, not panics inside it.
	for _, bad := range []Config{
		{Network: NetworkTree, N: 1},
		{Network: NetworkTree, K: 4, N: 2, VCs: -1},
		{Network: NetworkTree, K: 1 << 40, N: 1, VCs: 1 << 30},
		{Network: NetworkCube, Algorithm: AlgDuato, K: 4, N: -1},
		{Network: NetworkMesh, Algorithm: AlgDeterministic, K: 4, N: math.MaxInt},
	} {
		if _, err := bad.Timing(); err == nil {
			t.Errorf("%+v: Timing accepted a shape outside the cost model", bad)
		}
	}
}

func TestResultAbsoluteUnits(t *testing.T) {
	cfg := small(NetworkCube, AlgDuato, 4)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// LatencyNS = cycles x clock; throughput proportional to accepted.
	if math.Abs(res.LatencyNS-res.Sample.AvgLatency*res.Timing.Clock) > 1e-9 {
		t.Fatalf("LatencyNS %v inconsistent with %v cycles at %v ns", res.LatencyNS, res.Sample.AvgLatency, res.Timing.Clock)
	}
	if res.AcceptedBitsNS <= 0 || res.OfferedBitsNS <= 0 {
		t.Fatalf("absolute throughputs %v/%v", res.AcceptedBitsNS, res.OfferedBitsNS)
	}
	ratio := res.AcceptedBitsNS / res.OfferedBitsNS
	if math.Abs(ratio-res.Sample.Accepted/res.Sample.Offered) > 1e-9 {
		t.Fatal("absolute and normalized throughput ratios disagree")
	}
}

func TestSeriesOfAndDefaultLoads(t *testing.T) {
	loads := DefaultLoads()
	if len(loads) != 20 || loads[0] != 0.05 || math.Abs(loads[19]-1.0) > 1e-9 {
		t.Fatalf("DefaultLoads = %v", loads)
	}
	results := []Result{{Sample: Sample1()}, {Sample: Sample2()}}
	s := SeriesOf(results)
	if len(s) != 2 || s[0].Offered != 0.1 || s[1].Offered != 0.2 {
		t.Fatalf("SeriesOf = %+v", s)
	}
}

func TestLoads(t *testing.T) {
	for _, step := range []float64{0, -0.1, 2, math.NaN()} {
		if loads, err := Loads(step); err == nil || !strings.Contains(err.Error(), "outside (0, 1]") {
			t.Errorf("Loads(%v) = %v, %v; want an out-of-range error", step, loads, err)
		}
	}
	loads, err := Loads(0.05)
	if err != nil || !reflect.DeepEqual(loads, DefaultLoads()) {
		t.Fatalf("Loads(0.05) = %v, %v; want DefaultLoads %v", loads, err, DefaultLoads())
	}
	// Accumulated, not multiplied: these values are in fingerprints.
	loads, err = Loads(QuickStep)
	want := []float64{0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6, 0.7, 0.7999999999999999, 0.8999999999999999, 0.9999999999999999}
	if err != nil || !reflect.DeepEqual(loads, want) {
		t.Fatalf("Loads(%v) = %v, %v; want %v", QuickStep, loads, err, want)
	}
}

func TestHotspotAndExtraPatternsAssemble(t *testing.T) {
	for _, pattern := range []string{PatternShuffle, PatternNeighbor, PatternHotspot} {
		cfg := small(NetworkTree, AlgAdaptive, 2)
		cfg.Pattern = pattern
		if _, err := Run(cfg); err != nil {
			t.Errorf("pattern %s: %v", pattern, err)
		}
	}
	cfg := small(NetworkCube, AlgDuato, 4)
	cfg.Pattern = PatternTornado
	if _, err := Run(cfg); err != nil {
		t.Errorf("tornado on cube: %v", err)
	}
}

func TestInjLanesAblationAssembles(t *testing.T) {
	cfg := small(NetworkCube, AlgDuato, 4)
	cfg.InjLanes = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample.PacketsDelivered == 0 {
		t.Fatal("no packets with two injection lanes")
	}
}
