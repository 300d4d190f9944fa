// Switching-mode study: why wormhole routing exists.
//
//	go run ./examples/switching
//
// Wormhole switching pipelines a worm across the network so latency is
// roughly distance + length; store-and-forward buffers the whole packet
// at every hop and pays distance x length. This example runs the same
// 16-ary 2-cube under both disciplines (plus virtual cut-through: deep
// buffers without the store-and-forward gate) and prints the
// latency-versus-distance profile from the metrics package — the
// flattening of that curve is wormhole's contribution.
package main

import (
	"fmt"
	"log"

	"smart/internal/core"
	"smart/internal/metrics"
)

func main() {
	modes := []struct {
		name string
		cfg  core.Config
	}{
		{"wormhole (4-flit lanes)", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4}},
		{"virtual cut-through (16-flit lanes)", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, BufDepth: 16}},
		{"store-and-forward (16-flit lanes)", core.Config{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, BufDepth: 16, StoreAndForward: true}},
	}
	for _, m := range modes {
		m.cfg.Pattern = core.PatternUniform
		m.cfg.Load = 0.15 // light load isolates the switching cost
		m.cfg.Seed = 4
		m.cfg.Warmup, m.cfg.Horizon = 1000, 9000
		sm, err := core.NewSimulation(m.cfg)
		if err != nil {
			log.Fatal(err)
		}
		profile, err := metrics.NewLatencyByDistance(sm.Fabric, sm.Top, m.cfg.Warmup, m.cfg.Horizon)
		if err != nil {
			log.Fatal(err)
		}
		sm.Fabric.Tracer = profile
		res, err := sm.Run()
		if err != nil {
			log.Fatal(err)
		}
		points := profile.Points()
		fmt.Printf("%s — mean latency %.0f cycles\n", m.name, res.Sample.AvgLatency)
		fmt.Printf("  distance: ")
		for _, p := range points {
			if p.Distance%4 == 2 { // sample a few distances for brevity
				fmt.Printf("%6d", p.Distance)
			}
		}
		fmt.Printf("\n  latency:  ")
		for _, p := range points {
			if p.Distance%4 == 2 {
				fmt.Printf("%6.0f", p.MeanLatency)
			}
		}
		fmt.Println()
		if len(points) > 1 {
			first, last := points[0], points[len(points)-1]
			perHop := (last.MeanLatency - first.MeanLatency) / float64(last.Distance-first.Distance)
			fmt.Printf("  marginal cost per extra hop: %.1f cycles (packet is 16 flits)\n\n", perHop)
		}
	}
	fmt.Println("wormhole and cut-through pay ~3 cycles per extra hop; store-and-")
	fmt.Println("forward pays the full worm length, the product the paper's §1-§4")
	fmt.Println("router model is designed to avoid.")
}
