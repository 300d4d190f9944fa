package routing

import (
	"testing"

	"smart/internal/topology"
	"smart/internal/traffic"
)

func TestAscentPolicyNames(t *testing.T) {
	tree, _ := topology.NewTree(4, 2)
	cases := map[AscentPolicy]string{
		LeastLoaded:  "adaptive-2vc",
		RoundRobin:   "adaptive-2vc-round-robin",
		DigitAligned: "adaptive-2vc-digit-aligned",
	}
	for policy, want := range cases {
		a, err := NewTreeAdaptivePolicy(tree, 2, policy)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != want {
			t.Errorf("policy %v Name() = %q, want %q", policy, a.Name(), want)
		}
	}
	if _, err := NewTreeAdaptivePolicy(tree, 2, AscentPolicy(9)); err == nil {
		t.Error("unknown policy accepted")
	}
	if LeastLoaded.String() != "least-loaded" || AscentPolicy(9).String() == "" {
		t.Error("String() labels wrong")
	}
}

// TestAllAscentPoliciesRouteMinimally: whatever the ascent choice, the
// path stays minimal and two-phase.
func TestAllAscentPoliciesRouteMinimally(t *testing.T) {
	for _, policy := range []AscentPolicy{LeastLoaded, RoundRobin, DigitAligned} {
		tree, _ := topology.NewTree(4, 3)
		alg, err := NewTreeAdaptivePolicy(tree, 2, policy)
		if err != nil {
			t.Fatal(err)
		}
		pattern, _ := traffic.NewUniform(tree.Nodes())
		f, inj, e, tr := buildSim(t, tree, alg, pattern, 0.02, 8)
		e.Run(3000)
		drainOrFail(t, f, inj, e, 50000)
		for i, pk := range tr.delivered() {
			m := tree.NCALevel(int(pk.Src), int(pk.Dst))
			if int(pk.Hops) != 2*m+1 {
				t.Fatalf("policy %v: packet %d hops %d, want %d", policy, i, pk.Hops, 2*m+1)
			}
		}
	}
}

// TestDigitAlignedRoutesComplementConflictFree: under the complement
// permutation the digit-aligned ascent realizes Heller's congestion-free
// routing, so with a single virtual channel every packet should see an
// idle descending path. With one packet in flight per source the network
// latency equals the idle-path latency for every packet.
func TestDigitAlignedRoutesComplementConflictFree(t *testing.T) {
	tree, _ := topology.NewTree(4, 2)
	alg, err := NewTreeAdaptivePolicy(tree, 1, DigitAligned)
	if err != nil {
		t.Fatal(err)
	}
	pattern, _ := traffic.NewComplement(tree.Nodes())
	f, inj, e, tr := buildSim(t, tree, alg, pattern, 0.04, 8)
	e.Run(4000)
	drainOrFail(t, f, inj, e, 50000)
	// Complement on a 4-ary 2-tree: every pair has its NCA at the top
	// (the high digit always flips), so the idle-path latency is the
	// same for every packet: 2m+1 = 3 switch traversals at 3 cycles each
	// plus the 8-flit worm. Link-disjoint descents mean no packet can be
	// blocked behind another worm; the only possible extra delay is the
	// one-header-per-cycle routing arbiter when two headers reach a
	// switch in the same cycle, bounded by a few cycles per hop.
	// Residual delays come only from the one-header-per-cycle routing
	// arbiter and from a packet queueing behind its own flow's previous
	// worm (same source, same links), never from another flow: the tail
	// is bounded by one worm length and the mean stays within a couple of
	// cycles of ideal. On a congested pattern both bounds fail by a wide
	// margin.
	ideal := int64(3*3 + 8 - 1)
	var sum, count int64
	for i, pk := range tr.delivered() {
		lat := pk.NetworkLatency()
		sum += lat
		count++
		if lat < ideal {
			t.Fatalf("packet %d latency %d below the physical minimum %d", i, lat, ideal)
		}
		if lat > ideal+3*8 {
			t.Fatalf("packet %d latency %d: foreign-worm blocking on a congestion-free pattern (ideal %d)", i, lat, ideal)
		}
	}
	if mean := float64(sum) / float64(count); mean > float64(ideal)+4 {
		t.Fatalf("mean latency %.1f too far above the conflict-free ideal %d", mean, ideal)
	}
}

// TestLeastLoadedBeatsObliviousUnderUniform: the paper's least-loaded
// selection should sustain at least as much uniform traffic as the
// oblivious digit-aligned ascent at a saturating load.
func TestLeastLoadedBeatsObliviousUnderUniform(t *testing.T) {
	accepted := func(policy AscentPolicy) float64 {
		tree, _ := topology.NewTree(4, 2)
		alg, _ := NewTreeAdaptivePolicy(tree, 2, policy)
		pattern, _ := traffic.NewUniform(tree.Nodes())
		f, _, e, _ := buildSim(t, tree, alg, pattern, 0.12, 8) // ~96% offered
		e.Run(1000)
		start := f.Counters().FlitsDelivered
		e.Run(6000)
		return float64(f.Counters().FlitsDelivered-start) / 5000 / float64(tree.Nodes())
	}
	ll, da := accepted(LeastLoaded), accepted(DigitAligned)
	if ll < da-0.02 {
		t.Fatalf("least-loaded accepted %.3f, digit-aligned %.3f: adaptive selection lost", ll, da)
	}
}
