package smart_test

import (
	"fmt"

	"smart"
)

// Example runs a small deterministic simulation through the facade: a
// 16-node quaternary fat-tree under the complement permutation, which the
// tree routes congestion-free.
func Example() {
	res, err := smart.Run(smart.Config{
		Network:   smart.NetworkTree,
		Algorithm: smart.AlgAdaptive,
		VCs:       2,
		K:         4, N: 2, // 16 nodes: fast enough for a doc example
		Pattern: smart.PatternComplement,
		Load:    0.5,
		Seed:    1,
		Warmup:  500, Horizon: 4500,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("accepted %.1f of the offered 0.5 capacity\n", res.Sample.Accepted)
	fmt.Printf("clock %.2f ns per cycle\n", res.Timing.Clock)
	// Output:
	// accepted 0.5 of the offered 0.5 capacity
	// clock 10.24 ns per cycle
}

// ExampleSweep maps an offered-load curve and locates the saturation
// point, the paper's §6 methodology.
func ExampleSweep() {
	cfg := smart.Config{
		Network:   smart.NetworkCube,
		Algorithm: smart.AlgDeterministic,
		VCs:       4,
		K:         4, N: 2,
		Pattern: smart.PatternUniform,
		Seed:    1,
		Warmup:  500, Horizon: 4500,
	}
	results, err := smart.Sweep(cfg, []float64{0.2, 0.5, 0.9}, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	series := smart.SeriesOf(results)
	if _, saturated := series.Saturation(smart.Tolerance); saturated {
		fmt.Println("the network saturates inside the sweep")
	} else {
		fmt.Println("stable across the sweep")
	}
	fmt.Printf("points measured: %d\n", len(series))
	// Output:
	// the network saturates inside the sweep
	// points measured: 3
}
