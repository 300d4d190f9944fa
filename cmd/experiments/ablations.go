package main

import (
	"fmt"

	"smart/internal/core"
)

// study is one extension or ablation: a family of configurations swept
// over the grid's load axis and tabulated side by side. name prefixes
// the manifest batch of its runs (name/variant label).
type study struct {
	name, title, intro string
	variants           []variant
	metrics            []metric
}

// variant is one curve of a study; an empty label takes the
// configuration's own.
type variant struct {
	label string
	cfg   core.Config
}

// ownCapacityHeading heads accepted-bandwidth tables that compare
// networks of different capacity.
const ownCapacityHeading = "accepted bandwidth (fraction of each network's own capacity):"

// ablations are the extension studies DESIGN.md commits to: the
// design-choice sensitivities the paper discusses qualitatively but
// does not plot.
var ablations = []study{
	{
		name:  "ablation-bufdepth",
		title: "Ablation: lane buffer depth (tree, 2 VCs, uniform)",
		intro: `The paper fixes input and output lanes at 4 flits; deeper lanes absorb
more blocking in the descending phase.
`,
		variants: []variant{
			{"2-flit lanes", core.Config{Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 2, BufDepth: 2}},
			{"4-flit lanes", core.Config{Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 2, BufDepth: 4}},
			{"8-flit lanes", core.Config{Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 2, BufDepth: 8}},
		},
		metrics: []metric{{"", "ablation-bufdepth.csv", accepted}},
	},
	{
		name:  "ablation-packetsize",
		title: "Ablation: packet size (cube duato, uniform)",
		intro: `Longer worms raise the tail latency and deepen blocking trees; the
paper's 64-byte packets sit between the extremes.
`,
		variants: []variant{
			{"16B packets", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, PacketBytes: 16}},
			{"64B packets", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, PacketBytes: 64}},
			{"256B packets", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, PacketBytes: 256}},
		},
		metrics: []metric{
			{acceptedHeading, "ablation-packetsize-accepted.csv", accepted},
			{"network latency (cycles):", "ablation-packetsize-latency.csv", latency},
		},
	},
	{
		name:  "ablation-injlanes",
		title: "Ablation: source throttling (cube duato, uniform)",
		intro: `The paper's single injection channel keeps throughput stable above
saturation (§3); multiple injection lanes let a node push several
worms concurrently.
`,
		variants: []variant{
			{"1 inj lanes", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, InjLanes: 1}},
			{"2 inj lanes", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, InjLanes: 2}},
			{"4 inj lanes", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, InjLanes: 4}},
		},
		metrics: []metric{{"", "ablation-injlanes.csv", accepted}},
	},
	{
		name:  "ablation-ascent",
		title: "Ablation: fat-tree ascent policy (tree, 2 VCs, uniform)",
		intro: `The paper's algorithm picks the least-loaded up link; round-robin
ignores load, digit-aligned is fully oblivious (optimal for the
congestion-free permutations, blind under random traffic).
`,
		variants: []variant{
			{"least-loaded", core.Config{Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 2, TreeAscent: "least-loaded"}},
			{"round-robin", core.Config{Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 2, TreeAscent: "round-robin"}},
			{"digit-aligned", core.Config{Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 2, TreeAscent: "digit-aligned"}},
		},
		metrics: []metric{{"", "ablation-ascent.csv", accepted}},
	},
	{
		name:  "ablation-switching",
		title: "Ablation: switching mode (cube duato, uniform)",
		intro: `Wormhole (4-flit lanes) vs virtual cut-through (16-flit lanes) vs
store-and-forward (16-flit lanes, whole-packet gate): SAF pays the
distance-times-length latency product wormhole switching avoids.
`,
		variants: []variant{
			{"wormhole", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4}},
			{"cut-through", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, BufDepth: 16}},
			{"store-and-forward", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, BufDepth: 16, StoreAndForward: true}},
		},
		metrics: []metric{
			{acceptedHeading, "ablation-switching-accepted.csv", accepted},
			{"network latency (cycles):", "ablation-switching.csv", latency},
		},
	},
	{
		name:  "ablation-routeevery",
		title: "Ablation: routing-delay stretch (cube duato, uniform)",
		intro: `De-equalizing the pipeline: one header routed per switch every R
cycles emulates a slower routing decision than the cost model's
single cycle.
`,
		variants: []variant{
			{"route every 1", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, RouteEvery: 1}},
			{"route every 2", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, RouteEvery: 2}},
			{"route every 4", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, RouteEvery: 4}},
		},
		metrics: []metric{{"", "ablation-routeevery.csv", accepted}},
	},
	{
		name:  "ablation-mesh",
		title: "Ablation: torus vs mesh (duato, uniform)",
		intro: `Removing the wrap-around links halves the bisection; offered load is
normalized to each network's own capacity bound, so equal fractions
hide a 2x difference in absolute traffic.
`,
		variants: []variant{
			{"", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4}},
			{"", core.Config{Network: core.NetworkMesh, Algorithm: core.AlgDuato, VCs: 4}},
		},
		metrics: []metric{
			{ownCapacityHeading, "ablation-mesh-accepted.csv", accepted},
			{"accepted traffic (bits/ns, absolute):", "ablation-mesh.csv", bitsNS},
		},
	},
	{
		name:  "extension-8vc",
		title: "Extension: diminishing returns beyond 4 virtual channels (tree, uniform)",
		intro: `The paper predicts (§11) that past four virtual channels the routing
delay overtakes the wire delay, so extra lanes buy cycles-domain
throughput but lose absolute bits/ns. Eight lanes put the clock at
T_routing = 11.66 ns against the 4-lane 10.84 ns.
`,
		variants: []variant{
			{"2 vc", core.Config{Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 2}},
			{"4 vc", core.Config{Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 4}},
			{"8 vc", core.Config{Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 8}},
		},
		metrics: []metric{
			{acceptedHeading, "extension-8vc-accepted.csv", accepted},
			{"accepted traffic (bits/ns, absolute):", "extension-8vc.csv", bitsNS},
		},
	},
	{
		name:  "extension-hypercube",
		title: "Extension: hypercubes again? (2-ary 8-cube vs 16-ary 2-cube)",
		intro: `The paper cites Duato & Malumbres' question of whether hypercubes beat
low-dimensional tori once router complexity is charged. The binary
8-cube pays a 65-port crossbar and F = 18 routing freedom under the
same cost model; both networks have 256 nodes.
`,
		variants: []variant{
			{"torus duato", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4}},
			{"hypercube duato", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, K: 2, N: 8}},
			{"hypercube det", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDeterministic, VCs: 4, K: 2, N: 8}},
		},
		metrics: []metric{
			{ownCapacityHeading, "extension-hypercube-accepted.csv", accepted},
			{"accepted traffic (bits/ns, absolute after cost-model filtering):", "extension-hypercube.csv", bitsNS},
		},
	},
	{
		name:  "extension-patterns",
		title: "Extension: additional traffic patterns",
		intro: `Tornado on the cube (adversarial ring pressure), perfect shuffle and
a 5% hotspot on both networks.
`,
		variants: []variant{
			{"cube duato / tornado", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, Pattern: core.PatternTornado}},
			{"cube det / tornado", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDeterministic, VCs: 4, Pattern: core.PatternTornado}},
			{"cube duato / shuffle", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, Pattern: core.PatternShuffle}},
			{"tree 4vc / shuffle", core.Config{Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 4, Pattern: core.PatternShuffle}},
			{"cube duato / hotspot", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, Pattern: core.PatternHotspot}},
			{"tree 4vc / hotspot", core.Config{Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 4, Pattern: core.PatternHotspot}},
		},
		metrics: []metric{{"", "extension-patterns.csv", accepted}},
	},
}

// runAblations runs every study of the ablations table under the
// command's options and prints its tables.
func (g *grid) runAblations() error {
	for _, s := range ablations {
		fmt.Printf("== %s ==\n\n%s\n", s.title, s.intro)
		labels := make([]string, len(s.variants))
		sweeps := make([][]core.Result, len(s.variants))
		for i, v := range s.variants {
			cfg := v.cfg
			g.flags.Apply(&cfg)
			label := v.label
			if label == "" {
				label = cfg.WithDefaults().Label()
			}
			swept, err := g.sweep(cfg, s.name+"/"+label)
			if err != nil {
				return err
			}
			labels[i], sweeps[i] = label, swept
		}
		for _, m := range s.metrics {
			if err := g.table(m.heading, m.csv, labels, sweeps, m.value); err != nil {
				return err
			}
		}
		fmt.Println()
	}
	return nil
}
