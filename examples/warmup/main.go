// Warm-up validation: is the paper's 2000-cycle warm-up enough?
//
//	go run ./examples/warmup
//
// The methodology (§4) collects statistics only after 2000 cycles "to
// allow the network to reach steady state". This example samples the
// 16-ary 2-cube's delivered throughput every 250 cycles under uniform
// traffic at a demanding load with the telemetry flight recorder, charts
// the ramp, and reports the first sampled cycle from which throughput
// stays within 10% of its final value.
package main

import (
	"fmt"
	"log"

	"smart/internal/core"
	"smart/internal/plot"
	"smart/internal/telemetry"
)

func main() {
	cfg := core.Config{
		Network:   core.NetworkCube,
		Algorithm: core.AlgDuato,
		VCs:       4,
		Pattern:   core.PatternUniform,
		Load:      0.7,
		Seed:      6,
		Warmup:    2000,
		Horizon:   10000,
	}
	sm, err := core.NewSimulation(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sp := telemetry.NewSampler(sm.Fabric, sm.Engine, telemetry.RunInfo{}, telemetry.Config{Every: 250})
	sp.Register(sm.Engine)
	if _, err := sm.Run(); err != nil {
		log.Fatal(err)
	}
	rates := telemetry.Rates(telemetry.RecordOf(sp))

	nodes := float64(sm.Top.Nodes())
	xs := make([]float64, len(rates))
	ys := make([]float64, len(rates))
	for i, r := range rates {
		xs[i] = float64(r.Cycle)
		ys[i] = r.DeliveryRate / nodes
	}
	chart := plot.Chart{
		Title:  fmt.Sprintf("throughput ramp, %s at %.0f%% load", sm.Config.Label(), 100*cfg.Load),
		XLabel: "cycle", YLabel: "flits/node/cycle",
		Width: 64, Height: 12,
		Series: []plot.Series{{Name: "delivered throughput", X: xs, Y: ys}},
	}
	out, err := chart.Render()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)
	fmt.Println()
	if cycle, ok := telemetry.SteadyFrom(rates, 0.10); ok {
		fmt.Printf("throughput within 10%% of its final value from cycle %d on\n", cycle)
		if cycle <= cfg.Warmup {
			fmt.Printf("=> the paper's %d-cycle warm-up is sufficient at this load\n", cfg.Warmup)
		} else {
			fmt.Printf("=> the paper's %d-cycle warm-up would still carry transient\n", cfg.Warmup)
		}
	} else {
		fmt.Println("no steady state: the run recorded under two intervals or delivered nothing in its last")
	}
}
