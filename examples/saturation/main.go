// Saturation search: locate a network's saturation point by bisection.
//
//	go run ./examples/saturation
//
// The paper defines saturation as the minimum offered bandwidth at which
// the accepted bandwidth falls below the packet creation rate (§6). A
// full sweep (cmd/sweep) maps the whole curve; when only the saturation
// point is wanted, core.FindSaturation bisects over the offered load and
// finds it in a handful of simulations, judging each probe the way the
// sweep's detector does (metrics.Sample.Deficit against
// metrics.Tolerance). This example compares the two cube routing
// algorithms under uniform traffic, reproducing the paper's 60% vs 80%
// headline with a fraction of the work.
package main

import (
	"fmt"
	"log"

	"smart/internal/core"
)

func main() {
	for _, alg := range []string{core.AlgDeterministic, core.AlgDuato} {
		cfg := core.Config{
			Network:   core.NetworkCube,
			Algorithm: alg,
			VCs:       4,
			Pattern:   core.PatternUniform,
			Seed:      3,
			// A shorter horizon is fine for bisection: each probe only
			// needs a stable yes/no, not a publication-grade curve.
			Warmup:  1000,
			Horizon: 10000,
		}
		fmt.Printf("bisecting saturation of cube %s under uniform traffic:\n", alg)
		// Bracket [20%, 100%], bisected to two points of capacity.
		sat, ok, err := core.FindSaturation(cfg, 0.2, 1.0, 0.02)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			log.Fatalf("saturation of cube %s is not bracketed by [20%%, 100%%]", alg)
		}
		fmt.Printf("=> saturation at %.0f%% of capacity\n\n", 100*sat)
	}
	fmt.Println("paper (§9): deterministic saturates at 60%, Duato's adaptive at 80%")
}
