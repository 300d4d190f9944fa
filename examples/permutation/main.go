// Permutation study: why the fat-tree loves the complement permutation.
//
//	go run ./examples/permutation
//
// The paper (§8) observes that the complement belongs to a class of
// congestion-free permutations on k-ary n-trees: there is a choice of
// ascending paths under which no two descending paths share a link, so
// the network sustains nearly its full capacity — while the same pattern
// is the worst case for the cube, whose bisection every packet must
// cross. This example contrasts the two networks in simulation at a high
// offered load, then verifies the congestion-free property analytically
// with traffic.CongestionFree: with the canonical "straight-up" ascent, complement descents are
// link-disjoint while transpose descents collide.
package main

import (
	"fmt"
	"log"

	"smart/internal/core"
	"smart/internal/topology"
	"smart/internal/traffic"
)

func main() {
	fmt.Println("accepted bandwidth at 85% offered load (fraction of capacity):")
	fmt.Println()
	configs := []core.Config{
		{Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 1},
		{Network: core.NetworkCube, Algorithm: core.AlgDeterministic, VCs: 4},
		{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4},
	}
	for _, pattern := range []string{core.PatternComplement, core.PatternTranspose} {
		fmt.Printf("  %-11s", pattern)
		for _, cfg := range configs {
			cfg.Pattern = pattern
			cfg.Load = 0.85
			cfg.Seed = 7
			res, err := core.Run(cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %s %.2f", res.Config.Label(), res.Sample.Accepted)
		}
		fmt.Println()
	}

	tree, err := topology.NewTree(4, 4)
	if err != nil {
		log.Fatal(err)
	}
	complement, err := traffic.NewComplement(tree.Nodes())
	if err != nil {
		log.Fatal(err)
	}
	transpose, err := traffic.NewTranspose(tree.Nodes())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("analytic check (digit-aligned ascent, forced descent):")
	worst := func(p traffic.Pattern) int {
		_, w, err := traffic.CongestionFree(tree, p)
		if err != nil {
			log.Fatal(err)
		}
		return w
	}
	fmt.Printf("  max complement flows per descending link: %d  (1 = congestion-free)\n", worst(complement))
	fmt.Printf("  max transpose  flows per descending link: %d  (>1 = contention)\n", worst(transpose))
}
