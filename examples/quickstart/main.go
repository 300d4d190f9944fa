// Quickstart: simulate the paper's 4-ary 4-tree under uniform traffic at
// 40% of capacity and print the headline measurements.
//
//	go run ./examples/quickstart
//
// The core API is three steps: describe the experiment in a smart.Config,
// call smart.Run, and read the Result — the cycle-domain sample (accepted
// bandwidth, latency) plus the absolute units derived from the Chien
// router cost model.
package main

import (
	"fmt"
	"log"

	"smart"
)

func main() {
	cfg := smart.Config{
		Network:   smart.NetworkTree, // 4-ary 4-tree (256 nodes) by default
		Algorithm: smart.AlgAdaptive, // ascend adaptively, descend deterministically
		VCs:       2,                 // virtual channels per link
		Pattern:   smart.PatternUniform,
		Load:      0.4, // fraction of the uniform-traffic capacity
		Seed:      42,
	}

	res, err := smart.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("network          %s, clock %.2f ns\n", res.Config.Label(), res.Timing.Clock)
	fmt.Printf("offered load     %.0f%% of capacity\n", 100*res.Sample.Offered)
	fmt.Printf("accepted load    %.1f%% of capacity (%.0f bits/ns aggregate)\n",
		100*res.Sample.Accepted, res.AcceptedBitsNS)
	fmt.Printf("network latency  %.0f cycles = %.2f us (p95 %.0f cycles)\n",
		res.Sample.AvgLatency, res.LatencyNS/1000, res.Sample.P95Latency)
	fmt.Printf("packets          %d delivered over %d measured cycles\n",
		res.Sample.PacketsDelivered, res.Config.Horizon-res.Config.Warmup)

	if res.Sample.Deficit() <= smart.Tolerance {
		fmt.Println("\nthe network is below saturation: accepted tracks offered")
	} else {
		fmt.Println("\nthe network is saturated at this load")
	}
}
