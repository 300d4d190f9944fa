// Benchmarks regenerating every table and figure of the paper, one bench
// target per experiment. Each figure benchmark runs the full 256-node
// simulation at a representative offered load with a shortened horizon
// (the publication-grade grids live in cmd/experiments) and reports the
// measured accepted bandwidth and latency as custom metrics, so `go test
// -bench` both exercises and summarizes the reproduction:
//
//	go test -bench=Table               # Tables 1 and 2
//	go test -bench=Fig5                # fat-tree CNF curves
//	go test -bench=Fig6                # cube CNF curves
//	go test -bench=Fig7                # normalized absolute comparison
//	go test -bench=Ablation            # design-choice sensitivities
package smart_test

import (
	"fmt"
	"testing"

	"smart"
	"smart/internal/core"
	"smart/internal/cost"
	"smart/internal/telemetry"
)

// benchRun executes one full-size simulation and reports its headline
// measurements as benchmark metrics.
func benchRun(b *testing.B, cfg smart.Config) {
	b.Helper()
	cfg.Warmup, cfg.Horizon = 500, 3000
	cfg.Seed = 1
	var last smart.Result
	for i := 0; i < b.N; i++ {
		res, err := smart.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Sample.Accepted, "accepted/cap")
	b.ReportMetric(last.Sample.AvgLatency, "latency-cycles")
	b.ReportMetric(last.AcceptedBitsNS, "bits/ns")
}

var paperPatterns = []string{
	smart.PatternUniform, smart.PatternComplement,
	smart.PatternTranspose, smart.PatternBitRev,
}

// BenchmarkUniform is the observability-overhead guard: one uniform-
// traffic tree run through the plain Run path, which must stay on the
// uninstrumented fast path (no profiler, reporter or logger attached),
// so internal/obs may cost nothing here.
func BenchmarkUniform(b *testing.B) {
	benchRun(b, smart.Config{
		Network:   smart.NetworkTree,
		Algorithm: smart.AlgAdaptive,
		VCs:       2,
		Pattern:   smart.PatternUniform,
		Load:      0.5,
	})
}

// BenchmarkUniformTelemetry is the enabled-path twin of
// BenchmarkUniform: the same run with the flight-recorder sampler
// attached at its default cadence (every 100 cycles, no HTTP server, no
// sidecar I/O). Compare ns/op against BenchmarkUniform for the
// telemetry overhead; the disabled path is guarded structurally by
// TestTelemetryDisabledAddsNoStage in internal/core.
func BenchmarkUniformTelemetry(b *testing.B) {
	cfg := core.Config{
		Network:   core.NetworkTree,
		Algorithm: core.AlgAdaptive,
		VCs:       2,
		Pattern:   core.PatternUniform,
		Load:      0.5,
	}
	cfg.Warmup, cfg.Horizon = 500, 3000
	cfg.Seed = 1
	var last core.Result
	for i := 0; i < b.N; i++ {
		res, err := core.RunWith(cfg, core.Options{Telemetry: &telemetry.Options{}})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Sample.Accepted, "accepted/cap")
	b.ReportMetric(last.Sample.AvgLatency, "latency-cycles")
}

// BenchmarkTable1 regenerates the cube router delays of Table 1.
func BenchmarkTable1(b *testing.B) {
	var rows []cost.Timing
	for i := 0; i < b.N; i++ {
		rows = cost.Table1()
	}
	b.ReportMetric(rows[0].Clock, "det-clock-ns")
	b.ReportMetric(rows[1].Clock, "duato-clock-ns")
}

// BenchmarkTable2 regenerates the fat-tree router delays of Table 2.
func BenchmarkTable2(b *testing.B) {
	var rows []cost.Timing
	for i := 0; i < b.N; i++ {
		rows = cost.Table2()
	}
	b.ReportMetric(rows[0].Clock, "1vc-clock-ns")
	b.ReportMetric(rows[2].Clock, "4vc-clock-ns")
}

// BenchmarkFig5 reproduces one representative point of each Figure 5
// curve: the 4-ary 4-tree with 1, 2 and 4 virtual channels under each
// traffic pattern, at 50% offered load.
func BenchmarkFig5(b *testing.B) {
	for _, pattern := range paperPatterns {
		for _, vcs := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/%dvc", pattern, vcs), func(b *testing.B) {
				benchRun(b, smart.Config{
					Network: smart.NetworkTree, Algorithm: smart.AlgAdaptive,
					VCs: vcs, Pattern: pattern, Load: 0.5,
				})
			})
		}
	}
}

// BenchmarkFig6 reproduces one representative point of each Figure 6
// curve: the 16-ary 2-cube with deterministic and Duato routing.
func BenchmarkFig6(b *testing.B) {
	for _, pattern := range paperPatterns {
		for _, alg := range []string{smart.AlgDeterministic, smart.AlgDuato} {
			b.Run(fmt.Sprintf("%s/%s", pattern, alg), func(b *testing.B) {
				benchRun(b, smart.Config{
					Network: smart.NetworkCube, Algorithm: alg,
					VCs: 4, Pattern: pattern, Load: 0.5,
				})
			})
		}
	}
}

// BenchmarkFig7 reproduces the absolute comparison of Figure 7: all five
// configurations under each pattern at 50% offered load; the bits/ns
// metric is the figure's y axis.
func BenchmarkFig7(b *testing.B) {
	for _, pattern := range paperPatterns {
		for _, cfg := range smart.PaperConfigs() {
			cfg.Pattern = pattern
			cfg.Load = 0.5
			b.Run(fmt.Sprintf("%s/%s", pattern, cfg.WithDefaults().Label()), func(b *testing.B) {
				benchRun(b, cfg)
			})
		}
	}
}

// BenchmarkAblationBufDepth sweeps the lane depth design choice.
func BenchmarkAblationBufDepth(b *testing.B) {
	for _, depth := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("%dflit", depth), func(b *testing.B) {
			benchRun(b, smart.Config{
				Network: smart.NetworkTree, Algorithm: smart.AlgAdaptive,
				VCs: 2, BufDepth: depth, Pattern: smart.PatternUniform, Load: 0.5,
			})
		})
	}
}

// BenchmarkAblationPacketSize sweeps the worm length.
func BenchmarkAblationPacketSize(b *testing.B) {
	for _, bytes := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("%dB", bytes), func(b *testing.B) {
			benchRun(b, smart.Config{
				Network: smart.NetworkCube, Algorithm: smart.AlgDuato,
				VCs: 4, PacketBytes: bytes, Pattern: smart.PatternUniform, Load: 0.5,
			})
		})
	}
}

// BenchmarkAblationSourceThrottling lifts the single-injection-channel
// restriction of §3.
func BenchmarkAblationSourceThrottling(b *testing.B) {
	for _, lanes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%dinj", lanes), func(b *testing.B) {
			benchRun(b, smart.Config{
				Network: smart.NetworkCube, Algorithm: smart.AlgDuato,
				VCs: 4, InjLanes: lanes, Pattern: smart.PatternUniform, Load: 0.9,
			})
		})
	}
}

// BenchmarkAblationSwitchingMode contrasts wormhole, virtual cut-through
// and store-and-forward switching on the cube.
func BenchmarkAblationSwitchingMode(b *testing.B) {
	modes := []struct {
		name string
		cfg  smart.Config
	}{
		{"wormhole", smart.Config{Network: smart.NetworkCube, Algorithm: smart.AlgDuato, VCs: 4}},
		{"cut-through", smart.Config{Network: smart.NetworkCube, Algorithm: smart.AlgDuato, VCs: 4, BufDepth: 16}},
		{"store-and-forward", smart.Config{Network: smart.NetworkCube, Algorithm: smart.AlgDuato, VCs: 4, BufDepth: 16, StoreAndForward: true}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			m.cfg.Pattern = smart.PatternUniform
			m.cfg.Load = 0.4
			benchRun(b, m.cfg)
		})
	}
}

// BenchmarkAblationAscentPolicy contrasts the fat-tree ascent policies.
func BenchmarkAblationAscentPolicy(b *testing.B) {
	for _, ascent := range []string{"least-loaded", "round-robin", "digit-aligned"} {
		b.Run(ascent, func(b *testing.B) {
			benchRun(b, smart.Config{
				Network: smart.NetworkTree, Algorithm: smart.AlgAdaptive, VCs: 2,
				TreeAscent: ascent, Pattern: smart.PatternUniform, Load: 0.5,
			})
		})
	}
}

// BenchmarkAblationMesh contrasts the torus with the wrap-free mesh.
func BenchmarkAblationMesh(b *testing.B) {
	for _, network := range []smart.NetworkKind{smart.NetworkCube, smart.NetworkMesh} {
		b.Run(string(network), func(b *testing.B) {
			benchRun(b, smart.Config{
				Network: network, Algorithm: smart.AlgDuato, VCs: 4,
				Pattern: smart.PatternUniform, Load: 0.5,
			})
		})
	}
}

// BenchmarkAblationRouteEvery stretches the routing stage.
func BenchmarkAblationRouteEvery(b *testing.B) {
	for _, every := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("every%d", every), func(b *testing.B) {
			benchRun(b, smart.Config{
				Network: smart.NetworkCube, Algorithm: smart.AlgDuato, VCs: 4,
				RouteEvery: every, Pattern: smart.PatternUniform, Load: 0.5,
			})
		})
	}
}

// BenchmarkExtensionHypercube runs the binary 8-cube (the "hypercubes
// again?" study) at a representative load.
func BenchmarkExtensionHypercube(b *testing.B) {
	for _, alg := range []string{smart.AlgDeterministic, smart.AlgDuato} {
		b.Run(alg, func(b *testing.B) {
			benchRun(b, smart.Config{
				Network: smart.NetworkCube, K: 2, N: 8, Algorithm: alg, VCs: 4,
				Pattern: smart.PatternUniform, Load: 0.5,
			})
		})
	}
}

// BenchmarkExtensionPipelinedWires contrasts the paper's treatment of the
// fat-tree's medium wires (fold the delay into a stretched clock,
// LinkCycles=1) with wire pipelining (faster clock, LinkCycles=2): the
// pipelined design trades per-hop latency for a shorter cycle.
func BenchmarkExtensionPipelinedWires(b *testing.B) {
	for _, links := range []int{1, 2} {
		b.Run(fmt.Sprintf("linkcycles%d", links), func(b *testing.B) {
			benchRun(b, smart.Config{
				Network: smart.NetworkTree, Algorithm: smart.AlgAdaptive, VCs: 4,
				LinkCycles: links, BufDepth: 8,
				Pattern: smart.PatternUniform, Load: 0.5,
			})
		})
	}
}

// BenchmarkFabric is the tracked hot-path suite: the raw per-cycle cost
// of one-shard fabrics at low, medium and saturation offered loads, on
// the paper's two 256-node networks (4-ary 4-tree, 16-ary 2-cube) and
// on their 4096-node counterparts (8-ary 4-tree, 16-ary 3-cube). ns/op
// is ns/cycle; the cycles/sec metric is its reciprocal. The 4096-node
// cells at loads 0.6 and 0.9 are where saturated work lists cross the
// stages' half-occupancy switch to the index-order sweep at scale
// (DESIGN.md §4b). End-to-end timings with repetitions and spreads come
// from bench/ (bash bench/run.sh).
func BenchmarkFabric(b *testing.B) {
	nets := []struct {
		network     smart.NetworkKind
		k, n, nodes int
	}{
		{smart.NetworkTree, 4, 4, 256},
		{smart.NetworkTree, 8, 4, 4096},
		{smart.NetworkCube, 16, 2, 256},
		{smart.NetworkCube, 16, 3, 4096},
	}
	for _, net := range nets {
		for _, load := range []float64{0.2, 0.6, 0.9} {
			cfg := smart.Config{Network: net.network, K: net.k, N: net.n, Load: load, Seed: 1}
			b.Run(fmt.Sprintf("%s/nodes=%d/load=%.1f", net.network, net.nodes, load), func(b *testing.B) {
				s, err := smart.NewSimulation(cfg)
				if err != nil {
					b.Fatal(err)
				}
				s.Engine.Run(500) // settle into steady state at this load
				b.ReportAllocs()
				b.ResetTimer()
				start := s.Engine.Cycle()
				s.Engine.Run(start + int64(b.N))
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
			})
		}
	}
}
