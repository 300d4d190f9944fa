// Command experiments reproduces the paper's complete evaluation: Tables
// 1 and 2 (router delays), Figures 5 and 6 (Chaos Normal Form curves of
// the 4-ary 4-tree and the 16-ary 2-cube under uniform, complement,
// transpose and bit-reversal traffic), Figure 7 (the absolute-unit
// comparison), and a paper-versus-measured scorecard of every saturation
// point the text quotes. With -ablations it also runs the extension
// studies (buffer depth, packet size, injection lanes, extra patterns);
// with -degraded, the degraded-operation study.
//
// The full grid is 4 patterns x 5 configurations x 20 offered loads at
// the paper's 20000-cycle horizon; use -quick for a coarse preview.
//
// Output is a self-contained text report on stdout (tee it to a file);
// -csvdir additionally dumps every series as CSV for plotting. The run
// options are the grid set of internal/cli, shared with cmd/sweep and
// cmd/batch, and reach every study: Ctrl-C, -checkpoint/-resume,
// -watchdog, -manifest, -store, -shards and the telemetry sinks.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"smart/internal/cli"
	"smart/internal/core"
	"smart/internal/cost"
	"smart/internal/obs"
	"smart/internal/results"
)

// paperSaturation records the saturation points the paper's text quotes,
// as fractions of capacity, keyed by pattern then configuration label.
var paperSaturation = map[string]map[string]float64{
	"uniform":    {"cube deterministic": 0.60, "cube duato": 0.80, "tree adaptive-1vc": 0.36, "tree adaptive-2vc": 0.55, "tree adaptive-4vc": 0.72},
	"complement": {"cube deterministic": 0.47, "cube duato": 0.35, "tree adaptive-1vc": 0.95, "tree adaptive-2vc": 0.95, "tree adaptive-4vc": 0.95},
	"transpose":  {"cube deterministic": 0.24, "cube duato": 0.50, "tree adaptive-1vc": 0.33, "tree adaptive-2vc": 0.60, "tree adaptive-4vc": 0.78},
	"bitrev":     {"cube deterministic": 0.20, "cube duato": 0.60, "tree adaptive-1vc": 0.35, "tree adaptive-2vc": 0.60, "tree adaptive-4vc": 0.78},
}

var patterns = []string{"uniform", "complement", "transpose", "bitrev"}

// The per-run values the report tabulates against offered load.
var (
	accepted  = func(r core.Result) float64 { return r.Sample.Accepted }
	latency   = func(r core.Result) float64 { return r.Sample.AvgLatency }
	bitsNS    = func(r core.Result) float64 { return r.AcceptedBitsNS }
	latencyNS = func(r core.Result) float64 { return r.LatencyNS }
)

// acceptedHeading heads accepted-bandwidth tables.
const acceptedHeading = "accepted bandwidth (fraction of capacity):"

// metric is one table of a figure or study: the heading printed above
// it (none when empty), the CSV file it goes to, and the value it plots.
type metric struct {
	heading, csv string
	value        func(core.Result) float64
}

// grid is the methodology and run options every study of the report
// shares.
type grid struct {
	flags           *cli.Flags
	opts            core.Options
	loads           []float64
	warmup, horizon int64
	seed            uint64
	csvDir          string
	elapsed         func() time.Duration
}

func main() {
	flags := cli.AddFlags(flag.CommandLine)
	quick := flag.Bool("quick", false, "coarse grid and short horizon (preview quality)")
	ablate := flag.Bool("ablations", false, "also run the extension/ablation studies")
	degraded := flag.Bool("degraded", false, "also run the degraded-operation study (clean vs faulted vs bursty saturation)")
	seed := flag.Uint64("seed", 1, "random seed")
	csvDir := flag.String("csvdir", "", "write every series as CSV files into this directory")
	flag.Parse()

	g := &grid{flags: flags, seed: *seed, csvDir: *csvDir, elapsed: obs.Stopwatch()}
	step := 0.05
	if *quick {
		step = 0.10
		g.warmup, g.horizon = 1000, 8000
	}
	for l := step; l <= 1.0001; l += step {
		g.loads = append(g.loads, l)
	}

	runs := len(patterns) * len(core.PaperConfigs())
	if *degraded {
		runs += len(degradedConfigs) * len(degradedScenarios)
	}
	if *ablate {
		for _, s := range ablations {
			runs += len(s.variants)
		}
	}
	var finish func(error)
	g.opts, finish = flags.Open("experiments", runs*len(g.loads))
	finish(g.run(*quick, *degraded, *ablate))
}

// run prints the report: the paper's tables, figures and scorecard,
// then the optional studies.
func (g *grid) run(quick, degraded, ablate bool) error {
	if g.csvDir != "" {
		if err := os.MkdirAll(g.csvDir, 0o755); err != nil {
			return err
		}
	}
	fmt.Println("SMART reproduction of: Petrini & Vanneschi, \"Network Performance under")
	fmt.Println("Physical Constraints\", ICPP 1997")
	fmt.Printf("grid: %d loads (step %.2f), seed %d", len(g.loads), g.loads[0], g.seed)
	if quick {
		fmt.Print(", QUICK preview (warm-up 1000, horizon 8000)")
	} else {
		fmt.Print(", paper methodology (warm-up 2000, horizon 20000)")
	}
	fmt.Println()
	if g.flags.Faults != "" || g.flags.Burst != "" {
		fmt.Printf("DEGRADED grid: faults=%q burst=%q (paper columns assume a clean fabric)\n", g.flags.Faults, g.flags.Burst)
	}
	fmt.Println()

	// ---- Tables 1 and 2 ----
	fmt.Println("== Table 1: cube router delays (ns) ==")
	fmt.Println()
	fmt.Print(results.FormatTimings(cost.Table1()))
	fmt.Println()
	fmt.Println("== Table 2: fat-tree router delays (ns) ==")
	fmt.Println()
	fmt.Print(results.FormatTimings(cost.Table2()))
	fmt.Println()

	// ---- Figures 5, 6, 7 ----
	configs := core.PaperConfigs()
	type sweepKey struct{ pattern, label string }
	sweeps := map[sweepKey][]core.Result{}
	labels := make([]string, len(configs))
	for _, pattern := range patterns {
		for i, cfg := range configs {
			cfg.Pattern = pattern
			g.flags.Apply(&cfg)
			swept, err := g.sweep(cfg, cfg.Label()+"/"+pattern)
			if err != nil {
				return err
			}
			labels[i] = swept[0].Config.Label()
			sweeps[sweepKey{pattern, labels[i]}] = swept
			fmt.Fprintf(os.Stderr, "swept %-22s %-11s (%s elapsed)\n", labels[i], pattern, g.elapsed().Round(time.Second))
		}
	}

	cnf := []metric{
		{acceptedHeading, "accepted", accepted},
		{"network latency (cycles):", "latency", latency},
	}
	absolute := []metric{
		{"accepted traffic (bits/ns):", "throughput", bitsNS},
		{"network latency (ns):", "latency", latencyNS},
	}
	for _, f := range []struct {
		title, figure string
		labels        []string
		metrics       []metric
	}{
		{"4-ary 4-tree with 1, 2 and 4 virtual channels", "fig5", labels[2:], cnf},
		{"16-ary 2-cube, deterministic vs minimal adaptive", "fig6", labels[:2], cnf},
		{"Normalized absolute comparison", "fig7", labels, absolute},
	} {
		for _, p := range patterns {
			fmt.Printf("== %s (%s, %s traffic) ==\n\n", f.title, f.figure, p)
			sel := make([][]core.Result, len(f.labels))
			for i, label := range f.labels {
				sel[i] = sweeps[sweepKey{p, label}]
			}
			for _, m := range f.metrics {
				if err := g.table(m.heading, fmt.Sprintf("%s-%s-%s.csv", f.figure, p, m.csv), f.labels, sel, m.value); err != nil {
					return err
				}
			}
			fmt.Println()
		}
	}

	// ---- Scorecard ----
	fmt.Println("== Scorecard: saturation points, paper vs measured (fraction of capacity) ==")
	fmt.Println()
	headers := []string{"pattern", "configuration", "paper", "measured", "measured bits/ns"}
	var rows [][]string
	for _, p := range patterns {
		for _, label := range labels {
			row := results.Summarize(label, sweeps[sweepKey{p, label}], 0.02)
			measured := fmt.Sprintf("%.2f", row.SaturationFrac)
			if !row.Saturated {
				measured = ">" + measured
			}
			rows = append(rows, []string{
				p, label,
				fmt.Sprintf("%.2f", paperSaturation[p][label]),
				measured,
				fmt.Sprintf("%.0f", row.SaturationBitsNS),
			})
		}
	}
	fmt.Print(results.FormatTable(headers, rows))
	if err := g.writeCSV("scorecard.csv", headers, rows); err != nil {
		return err
	}
	fmt.Println()

	if degraded {
		if err := g.runDegraded(); err != nil {
			return err
		}
	}
	if ablate {
		if err := g.runAblations(); err != nil {
			return err
		}
	}
	fmt.Printf("total wall time %s\n", g.elapsed().Round(time.Second))
	return nil
}

// sweep runs cfg over the load axis at the grid's seed and horizon,
// under the command's options, stamping its manifest records with batch.
func (g *grid) sweep(cfg core.Config, batch string) ([]core.Result, error) {
	cfg.Seed = g.seed
	cfg.Warmup, cfg.Horizon = g.warmup, g.horizon
	o := g.opts
	o.Batch = batch
	return core.SweepWith(cfg, g.loads, runtime.GOMAXPROCS(0), o)
}

// table prints one metric of a set of sweeps against offered load and
// writes it to the CSV file csv.
func (g *grid) table(heading, csv string, labels []string, sweeps [][]core.Result, value func(core.Result) float64) error {
	h, r, err := results.MultiSeries(labels, sweeps, value, "offered")
	if err != nil {
		return err
	}
	if heading != "" {
		fmt.Println(heading)
	}
	fmt.Print(results.FormatTable(h, r))
	return g.writeCSV(csv, h, r)
}

// writeCSV writes a table into -csvdir, when one is set.
func (g *grid) writeCSV(name string, headers []string, rows [][]string) error {
	if g.csvDir == "" {
		return nil
	}
	return results.WriteCSVFile(filepath.Join(g.csvDir, name), headers, rows)
}
