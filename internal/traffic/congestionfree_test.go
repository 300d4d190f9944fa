package traffic

import (
	"testing"

	"smart/internal/sim"
	"smart/internal/topology"
)

func cfTree(t *testing.T) *topology.Tree {
	t.Helper()
	tr, err := topology.NewTree(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestComplementCongestionFree verifies the paper's §8 claim analytically:
// the complement belongs to the congestion-free class.
func TestComplementCongestionFree(t *testing.T) {
	tr := cfTree(t)
	p, _ := NewComplement(tr.Nodes())
	free, worst, err := CongestionFree(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if !free || worst != 1 {
		t.Fatalf("complement: free=%v worst=%d, want congestion-free", free, worst)
	}
}

// TestTransposeAndBitrevCongested: the other two permutations congest the
// descending phase, which is why their curves track the flow-control
// strategy (§8.1). Both pile k^(n/2)-1 = 15 flows onto their busiest
// descending link of the 4-ary 4-tree, EXPERIMENTS.md's figure and what
// examples/permutation prints.
func TestTransposeAndBitrevCongested(t *testing.T) {
	tr := cfTree(t)
	tp, _ := NewTranspose(tr.Nodes())
	free, worst, err := CongestionFree(tr, tp)
	if err != nil {
		t.Fatal(err)
	}
	if free || worst != 15 {
		t.Fatalf("transpose: free=%v worst=%d, want contention with 15 flows", free, worst)
	}
	br, _ := NewBitReversal(tr.Nodes())
	free, worst, err = CongestionFree(tr, br)
	if err != nil {
		t.Fatal(err)
	}
	if free || worst != 15 {
		t.Fatalf("bit reversal: free=%v worst=%d, want contention with 15 flows", free, worst)
	}
}

// TestIdentityLikeLocalPermutation: a permutation that stays inside each
// level-0 switch is trivially congestion-free.
func TestIdentityLikeLocalPermutation(t *testing.T) {
	tr := cfTree(t)
	free, worst, err := CongestionFree(tr, siblingShift{k: tr.K})
	if err != nil {
		t.Fatal(err)
	}
	if !free || worst != 1 {
		t.Fatalf("sibling shift: free=%v worst=%d", free, worst)
	}
}

// siblingShift rotates nodes within their level-0 switch.
type siblingShift struct{ k int }

func (siblingShift) Name() string { return "sibling-shift" }
func (s siblingShift) Dest(src int, _ *sim.RNG) int {
	return src/s.k*s.k + (src+1)%s.k
}

// TestExtensionPatternsCongestionClass records where the extension
// patterns fall under the digit-aligned assignment: the nearest-neighbour
// cyclic shift is congestion-free (it is a "permutation that maps a k-ary
// n-tree into itself" in the paper's sense), while the perfect shuffle
// has mild descending contention (two flows per worst link).
func TestExtensionPatternsCongestionClass(t *testing.T) {
	tr := cfTree(t)
	nb, _ := NewNeighbor(tr.Nodes())
	free, worst, err := CongestionFree(tr, nb)
	if err != nil {
		t.Fatal(err)
	}
	if !free || worst != 1 {
		t.Fatalf("neighbor: free=%v worst=%d, want congestion-free", free, worst)
	}
	sh, _ := NewShuffle(tr.Nodes())
	free, worst, err = CongestionFree(tr, sh)
	if err != nil {
		t.Fatal(err)
	}
	if free || worst != 2 {
		t.Fatalf("shuffle: free=%v worst=%d, want mild contention (2)", free, worst)
	}
}

func TestCongestionFreeRejectsNonPermutations(t *testing.T) {
	tr := cfTree(t)
	if _, _, err := CongestionFree(tr, constPattern{}); err == nil {
		t.Fatal("non-permutation accepted")
	}
	if _, _, err := CongestionFree(tr, outOfRange{}); err == nil {
		t.Fatal("out-of-range pattern accepted")
	}
}

type constPattern struct{}

func (constPattern) Name() string           { return "const" }
func (constPattern) Dest(int, *sim.RNG) int { return 0 }

type outOfRange struct{}

func (outOfRange) Name() string                 { return "oob" }
func (outOfRange) Dest(src int, _ *sim.RNG) int { return src + 1 }

// TestCongestionFreePredictsSimulation ties the analytic property to the
// simulator: on a 16-node tree with a single virtual channel, the
// congestion-free complement sustains a clearly higher accepted load than
// the congested transpose at the same high offered bandwidth. (The full
// 256-node confirmation is Figure 5; this keeps the link in the unit
// suite.)
func TestCongestionFreePredictsSimulation(t *testing.T) {
	measure := func(mk func(n int) (Pattern, error)) float64 {
		tr, err := topology.NewTree(4, 2)
		if err != nil {
			t.Fatal(err)
		}
		pattern, err := mk(tr.Nodes())
		if err != nil {
			t.Fatal(err)
		}
		accepted := simulateTreeAccepted(t, tr, pattern, 0.9)
		return accepted
	}
	comp := measure(func(n int) (Pattern, error) { return NewComplement(n) })
	tp := measure(func(n int) (Pattern, error) { return NewTranspose(n) })
	if comp <= tp+0.1 {
		t.Fatalf("complement accepted %.2f vs transpose %.2f: congestion-free advantage missing", comp, tp)
	}
}
