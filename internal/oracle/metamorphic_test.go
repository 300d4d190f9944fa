package oracle

// Metamorphic tests: instead of comparing one implementation against
// another (the differential tier), these check relations that must hold
// between *runs* of the same implementation under a transformed input —
// node-relabeling equivariance, load monotonicity, the physical zero-load
// latency bound, and the paper's routing-dominance results. Each relation
// is exercised on the optimized fabric and, where the run is scripted, on
// the reference oracle as well, so a semantics bug has to fool two
// implementations and a symmetry argument at once to slip through.

import (
	"fmt"
	"testing"

	"smart/internal/cost"
	"smart/internal/metrics"
	"smart/internal/phys"
	"smart/internal/sim"
	"smart/internal/topology"
	"smart/internal/traffic"
	"smart/internal/wormhole"
)

// scriptEvent is one scripted packet creation: EnqueuePacket(src, dst) in
// cycle at. Scripted workloads replace the Bernoulli injector where a
// metamorphic transformation must be applied to the workload itself.
type scriptEvent struct {
	at       int64
	src, dst int
}

// runScript drives a network with a scripted workload (events sorted by
// cycle), then steps until it drains and returns the packet table.
func runScript(t *testing.T, net Network, events []scriptEvent, drainBudget int64) []wormhole.PacketInfo {
	t.Helper()
	eng := sim.NewEngine()
	net.Register(eng)
	tab := logTable(eng, net)
	next := 0
	for next < len(events) {
		for next < len(events) && events[next].at == eng.Cycle() {
			net.EnqueuePacket(events[next].src, events[next].dst, eng.Cycle())
			next++
		}
		eng.Step()
	}
	deadline := eng.Cycle() + drainBudget
	for !net.Drained() && eng.Cycle() < deadline {
		eng.Step()
	}
	if !net.Drained() {
		t.Fatalf("network failed to drain within %d extra cycles", drainBudget)
	}
	return tab.recs
}

// newFabricFor builds a fabric (with a fresh algorithm instance) for a
// differential spec.
func newFabricFor(t *testing.T, sp diffSpec) (*wormhole.Fabric, topology.Topology) {
	t.Helper()
	top, alg := sp.buildTopAlg(t)
	fab, err := wormhole.NewFabric(top, sp.config(alg.VCs()), alg)
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	return fab, top
}

// newOracleFor builds a reference simulator for a differential spec.
func newOracleFor(t *testing.T, sp diffSpec) (*Sim, topology.Topology) {
	t.Helper()
	top, alg := sp.buildTopAlg(t)
	ora, err := New(top, sp.config(alg.VCs()), alg)
	if err != nil {
		t.Fatalf("oracle.New: %v", err)
	}
	return ora, top
}

// TestMetamorphicCubeTranslation checks torus-translation equivariance:
// adding a constant vector to every node's coordinates is an automorphism
// of the k-ary n-cube that maps router r's port p to router σ(r)'s port p
// — it preserves every index order the fabric arbitrates by (port scan
// order, lane order, round-robin pointers), so a workload and its
// translated image must produce bit-identical per-packet schedules.
//
// The one piece of state that is NOT translation-symmetric is the
// Dally-Seitz wrap-class bit (crossing a wrap-around link depends on
// absolute coordinates), so the scripted workload is confined to a
// coordinate box smaller than half the ring: every minimal path stays in
// the box, no packet crosses a wrap in either run, and the symmetry is
// exact even under heavy contention. The test asserts RouteBits == 0
// throughout to prove the premise held.
func TestMetamorphicCubeTranslation(t *testing.T) {
	const k, n, box, shift = 5, 2, 3, 2
	cube, err := topology.NewCube(k, n)
	if err != nil {
		t.Fatal(err)
	}
	translate := func(x int) int {
		for d := 0; d < n; d++ {
			x = cube.WithDigit(x, d, (cube.Digit(x, d)+shift)%k)
		}
		return x
	}
	// A bursty, hotspot-biased workload over the 3x3 box at the origin:
	// enough concurrent packets that lanes fill, adaptive choices engage
	// and arbitration actually breaks ties.
	rng := sim.NewRNG(2026)
	var events []scriptEvent
	boxNodes := make([]int, 0, box*box)
	for a := 0; a < box; a++ {
		for b := 0; b < box; b++ {
			boxNodes = append(boxNodes, a+b*k)
		}
	}
	hot := 1 + 1*k // box center (1,1)
	for cycle := int64(0); cycle < 160; cycle++ {
		for _, src := range boxNodes {
			if !rng.Bernoulli(0.12) {
				continue
			}
			dst := hot
			if rng.Bernoulli(0.5) {
				dst = boxNodes[rng.Intn(len(boxNodes))]
			}
			if dst == src {
				continue
			}
			events = append(events, scriptEvent{at: cycle, src: src, dst: dst})
		}
	}
	translated := make([]scriptEvent, len(events))
	for i, ev := range events {
		translated[i] = scriptEvent{at: ev.at, src: translate(ev.src), dst: translate(ev.dst)}
	}

	for _, alg := range []string{"dor", "duato"} {
		t.Run(alg, func(t *testing.T) {
			sp := diffSpec{family: "cube", k: k, n: n, alg: alg, buf: 4, flits: 4, inj: 1}
			for _, side := range []struct {
				name  string
				build func() Network
			}{
				{"fabric", func() Network { f, _ := newFabricFor(t, sp); return f }},
				{"oracle", func() Network { o, _ := newOracleFor(t, sp); return o }},
			} {
				base := runScript(t, side.build(), events, 20000)
				moved := runScript(t, side.build(), translated, 20000)
				if len(base) != len(moved) {
					t.Fatalf("%s: packet table lengths differ: %d vs %d", side.name, len(base), len(moved))
				}
				contended := false
				for id := range base {
					a, b := &base[id], &moved[id]
					if int(b.Src) != translate(int(a.Src)) || int(b.Dst) != translate(int(a.Dst)) {
						t.Fatalf("%s: packet %d endpoints not the translated image: base %d->%d, moved %d->%d",
							side.name, id, a.Src, a.Dst, b.Src, b.Dst)
					}
					if a.RouteBits != 0 || b.RouteBits != 0 {
						t.Fatalf("%s: packet %d crossed a wrap-around link (RouteBits %#x/%#x); the box workload must stay wrap-free",
							side.name, id, a.RouteBits, b.RouteBits)
					}
					if a.CreatedAt != b.CreatedAt || a.InjectedAt != b.InjectedAt ||
						a.HeadAt != b.HeadAt || a.TailAt != b.TailAt || a.Hops != b.Hops {
						t.Fatalf("%s: packet %d schedule not translation-invariant:\nbase  %+v\nmoved %+v",
							side.name, id, *a, *b)
					}
					dist := cube.Distance(int(a.Src), int(a.Dst))
					if a.NetworkLatency() > zeroLoadCycles(dist, sp.flits, 1) {
						contended = true
					}
				}
				if !contended {
					t.Fatalf("%s: every packet ran at zero-load latency; the workload exercised no contention", side.name)
				}
			}
		})
	}
}

// zeroLoadCycles is the exact latency of an isolated packet: the header
// pays one link, one crossbar and one routing cycle per switch traversal
// (link cycles stretch the link leg), and the body streams behind it at
// one flit per cycle.
func zeroLoadCycles(dist, flits, linkCycles int) int64 {
	if linkCycles < 1 {
		linkCycles = 1
	}
	return int64((2+linkCycles)*(dist-1) + flits - 1)
}

// TestMetamorphicZeroLoadLatency injects isolated packets between sampled
// node pairs and checks the zero-load latency on both implementations: it
// must equal the pipeline formula exactly in cycles, and — converted to
// nanoseconds with the configuration's Chien-model clock — it must
// dominate the physical lower bound of internal/cost, in which every
// switch traversal pays at least the routing, crossbar and link stage
// delays and the body pays the link serialization.
func TestMetamorphicZeroLoadLatency(t *testing.T) {
	cases := []struct {
		sp     diffSpec
		timing cost.Timing
	}{
		{diffSpec{family: "tree", k: 4, n: 2, alg: "adaptive", vcs: 2, buf: 4, flits: 4, inj: 1}, cost.TreeAdaptive(4, 2)},
		{diffSpec{family: "tree", k: 2, n: 3, alg: "adaptive", vcs: 1, buf: 4, flits: 4, inj: 1}, cost.TreeAdaptive(2, 1)},
		{diffSpec{family: "cube", k: 4, n: 2, alg: "dor", buf: 4, flits: 4, inj: 1}, cost.CubeDeterministicN(2)},
		{diffSpec{family: "cube", k: 3, n: 2, alg: "duato", buf: 4, flits: 1, inj: 1}, cost.CubeDuatoN(2)},
		{diffSpec{family: "cube", k: 4, n: 2, alg: "dor", buf: 4, flits: 4, inj: 1, wire: 3}, cost.CubeDeterministicN(2)},
	}
	for _, tc := range cases {
		sp := tc.sp
		name := fmt.Sprintf("%s%dary%d-%s", sp.family, sp.k, sp.n, sp.alg)
		if sp.wire > 1 {
			name += "-wires"
		}
		t.Run(name, func(t *testing.T) {
			fab, topF := newFabricFor(t, sp)
			ora, topO := newOracleFor(t, sp)
			for _, side := range []struct {
				name string
				net  Network
				top  topology.Topology
			}{
				{"fabric", fab, topF},
				{"oracle", ora, topO},
			} {
				eng := sim.NewEngine()
				side.net.Register(eng)
				tab := logTable(eng, side.net)
				nodes := side.top.Nodes()
				for src := 0; src < nodes; src++ {
					for _, off := range []int{1, 3, nodes / 2, nodes - 1} {
						dst := (src + off) % nodes
						if dst == src {
							continue
						}
						id := side.net.EnqueuePacket(src, dst, eng.Cycle())
						for i := 0; i < 1000 && !side.net.Drained(); i++ {
							eng.Step()
						}
						if !side.net.Drained() {
							t.Fatalf("%s: packet %d->%d never drained", side.name, src, dst)
						}
						pk := tab.recs[id]
						dist := side.top.Distance(src, dst)
						want := zeroLoadCycles(dist, sp.flits, sp.wire)
						if got := pk.NetworkLatency(); got != want {
							t.Fatalf("%s: isolated packet %d->%d (distance %d): latency %d cycles, want exactly %d",
								side.name, src, dst, dist, got, want)
						}
						latNS := float64(pk.NetworkLatency()) * tc.timing.Clock
						boundNS := float64(dist-1)*(tc.timing.TRouting+tc.timing.TCrossbar+tc.timing.TLink) +
							float64(sp.flits-1)*tc.timing.TLink
						if latNS < boundNS-1e-9 {
							t.Fatalf("%s: packet %d->%d: %.2fns beats the physical lower bound %.2fns",
								side.name, src, dst, latNS, boundNS)
						}
					}
				}
			}
		})
	}
}

// TestMetamorphicLoadMonotonicity checks that raising the offered load
// only adds packets: the injector draws exactly one Bernoulli variate per
// node per cycle, and a permutation pattern consumes no further
// randomness, so the set of (source, creation-cycle) events at a lower
// rate must be a strict subset of the set at any higher rate under the
// same seed.
func TestMetamorphicLoadMonotonicity(t *testing.T) {
	cases := []struct {
		name    string
		sp      diffSpec
		pattern string
	}{
		{"tree-complement", diffSpec{family: "tree", k: 2, n: 3, alg: "adaptive", vcs: 2, buf: 4, flits: 4, inj: 1}, "complement"},
		{"cube-transpose", diffSpec{family: "cube", k: 4, n: 2, alg: "dor", buf: 4, flits: 4, inj: 1}, "transpose"},
	}
	rates := []float64{0.02, 0.06, 0.15, 0.30}
	const cycles, seed = 600, 77
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type creation struct {
				src int32
				at  int64
			}
			var prev map[creation]bool
			for _, rate := range rates {
				fab, top := newFabricFor(t, tc.sp)
				inj, err := traffic.NewInjector(fab, buildTestPattern(t, tc.pattern, top.Nodes()), rate, seed)
				if err != nil {
					t.Fatal(err)
				}
				eng := newEngineFor(inj, fab)
				tab := logTable(eng, fab)
				eng.Run(cycles)
				created := map[creation]bool{}
				for _, pk := range tab.recs {
					created[creation{pk.Src, pk.CreatedAt}] = true
				}
				if prev != nil {
					if len(created) <= len(prev) {
						t.Fatalf("rate %g created %d packets, not more than the %d at the lower rate", rate, len(created), len(prev))
					}
					for ev := range prev {
						if !created[ev] {
							t.Fatalf("rate %g lost creation %+v that the lower rate produced: the Bernoulli draws are not nested", rate, ev)
						}
					}
				}
				prev = created
			}
		})
	}
}

// TestMetamorphicRoutingDominance checks the paper's two ordering results
// at a fixed seed and identical open-loop workloads: more virtual
// channels never hurt the fat-tree (Figure 5: the 4-VC tree saturates at
// twice the 1-VC load), and Duato's adaptive algorithm dominates
// dimension-order routing on the cube under uniform traffic (Figure 6).
// The injection process is open-loop, so both runs of a pair see exactly
// the same created packets and the comparison isolates the routing
// discipline.
func TestMetamorphicRoutingDominance(t *testing.T) {
	measure := func(sp diffSpec, loadFrac float64, warmup, horizon int64) metrics.Sample {
		t.Helper()
		fab, top := newFabricFor(t, sp)
		capFlits, err := phys.CapacityFlits(top)
		if err != nil {
			t.Fatal(err)
		}
		rate := loadFrac * capFlits / float64(sp.flits)
		inj, err := traffic.NewInjector(fab, buildTestPattern(t, "uniform", top.Nodes()), rate, 5)
		if err != nil {
			t.Fatal(err)
		}
		eng := newEngineFor(inj, fab)
		win, err := metrics.NewWindow(fab, capFlits)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run(warmup)
		win.Start(warmup)
		fab.ResetLinkStats()
		eng.Run(horizon)
		sample, err := win.Measure(horizon, loadFrac)
		if err != nil {
			t.Fatal(err)
		}
		if sample.PacketsDelivered == 0 {
			t.Fatalf("%s delivered nothing in the window; the comparison is vacuous", sp.family)
		}
		return sample
	}

	t.Run("tree-more-vcs-dominate", func(t *testing.T) {
		base := diffSpec{family: "tree", k: 4, n: 2, alg: "adaptive", buf: 4, flits: 4, inj: 1}
		one, four := base, base
		one.vcs, four.vcs = 1, 4
		s1 := measure(one, 0.70, 300, 1800)
		s4 := measure(four, 0.70, 300, 1800)
		t.Logf("accepted at 0.70 offered: 1 VC %.4f, 4 VC %.4f", s1.Accepted, s4.Accepted)
		if s4.Accepted < s1.Accepted {
			t.Fatalf("4-VC tree accepted %.4f, below the 1-VC tree's %.4f at the same offered load", s4.Accepted, s1.Accepted)
		}
	})
	t.Run("cube-duato-dominates-dor", func(t *testing.T) {
		base := diffSpec{family: "cube", k: 4, n: 2, buf: 4, flits: 4, inj: 1}
		dor, duato := base, base
		dor.alg, duato.alg = "dor", "duato"
		sd := measure(dor, 0.80, 300, 1800)
		sa := measure(duato, 0.80, 300, 1800)
		t.Logf("accepted at 0.80 offered: dor %.4f, duato %.4f", sd.Accepted, sa.Accepted)
		if sa.Accepted < sd.Accepted {
			t.Fatalf("duato accepted %.4f, below dimension-order's %.4f at the same offered load", sa.Accepted, sd.Accepted)
		}
	})
}
