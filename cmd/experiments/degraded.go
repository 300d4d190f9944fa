package main

import (
	"fmt"
	"os"
	"time"

	"smart/internal/core"
	"smart/internal/results"
)

// degradedConfigs are the fault-tolerant configurations of the
// degraded-operation study: the Duato torus and the adaptive fat-tree.
// Deterministic (dimension-order) cube routing is excluded on purpose:
// it is fault-oblivious by design and wedges at the first cut link on
// its path; the watchdog names the blocked header instead (see the
// seeded-fault regression test).
var degradedConfigs = []core.Config{
	{Network: core.NetworkCube, K: 8, N: 2, Algorithm: core.AlgDuato, VCs: 4},
	{Network: core.NetworkTree, K: 4, N: 4, Algorithm: core.AlgAdaptive, VCs: 4},
}

// degradedScenarios are the overlays the degraded-operation study
// applies on top of an otherwise clean configuration. The fault clause
// is seeded-random, so it expands deterministically from each run's
// Config.Fingerprint: the same configuration always loses the same six
// links, and the study stays content-addressable.
var degradedScenarios = []struct {
	label  string
	faults string
	burst  string
}{
	{"clean", "", ""},
	{"faulted", "rand-links:6@1000", ""},
	{"bursty", "", "mmpp:200:600:2.5"},
	{"faulted+bursty", "rand-links:6@1000", "mmpp:200:600:2.5"},
}

// runDegraded sweeps each degraded configuration under each scenario
// and reports the saturation shift. These are the numbers behind
// README's degraded-saturation table. The scenario's fault schedule and
// burst process replace -faults and -burst; -watchdog applies as to
// every run.
func (g *grid) runDegraded() error {
	fmt.Println("== Degraded operation: saturation under faults and bursty injection ==")
	fmt.Println()
	headers := []string{"configuration", "scenario", "saturation", "bits/ns at saturation", "pre-sat latency ns"}
	var rows [][]string
	for _, base := range degradedConfigs {
		for _, sc := range degradedScenarios {
			cfg := base
			cfg.Pattern = "uniform"
			g.flags.Apply(&cfg)
			cfg.Faults, cfg.Burst = sc.faults, sc.burst
			swept, err := g.sweep(cfg, "degraded/"+cfg.Label()+"/"+sc.label)
			if err != nil {
				return err
			}
			row := results.Summarize(sc.label, swept, 0.02)
			sat := fmt.Sprintf("%.2f", row.SaturationFrac)
			if !row.Saturated {
				sat = ">" + sat
			}
			rows = append(rows, []string{
				swept[0].Config.Label(), sc.label, sat,
				fmt.Sprintf("%.0f", row.SaturationBitsNS),
				fmt.Sprintf("%.0f", row.PreSatLatencyNS),
			})
			fmt.Fprintf(os.Stderr, "degraded %-22s %-14s (%s elapsed)\n",
				swept[0].Config.Label(), sc.label, g.elapsed().Round(time.Second))
		}
	}
	fmt.Print(results.FormatTable(headers, rows))
	if err := g.writeCSV("degraded-saturation.csv", headers, rows); err != nil {
		return err
	}
	fmt.Println()
	return nil
}
