// Command sweep reproduces the per-network figures of the paper (Figures
// 5 and 6): it sweeps the offered bandwidth for one network/algorithm
// configuration and traffic pattern and prints the Chaos Normal Form
// series — accepted bandwidth and network latency versus offered
// bandwidth, normalized to the uniform-traffic capacity — plus the
// saturation point.
//
// Examples:
//
//	sweep -net tree -vcs 1 -pattern uniform          # one curve of Fig 5a
//	sweep -net cube -alg duato -pattern transpose    # one curve of Fig 6e
//	sweep -net tree -vcs 4 -pattern bitrev -csv out.csv
//
// The run options are the grid set of internal/cli, shared with
// cmd/batch and cmd/experiments.
//
// Observability (internal/obs): -v adds structured run logs, a live
// progress line and a final per-stage engine timing report on stderr;
// -manifest writes one JSONL record per run (config, seed, sample,
// wall time); -cpuprofile/-memprofile/-trace feed go tool pprof/trace.
//
//	sweep -net tree -vcs 2 -quick -v -manifest runs.jsonl -cpuprofile cpu.prof
//
// Resilience (internal/resilience): -checkpoint journals completed runs
// as they finish, Ctrl-C flushes the journal, partial manifest and
// store instead of dropping them, and -resume skips the journaled runs
// on the next invocation; -watchdog bounds how long a run may go
// without flit progress before it aborts with a stall diagnosis.
//
//	sweep -net cube -alg duato -checkpoint sweep.ckpt            # interruptible
//	sweep -net cube -alg duato -checkpoint sweep.ckpt -resume    # pick up where it left off
//
// Caching (internal/store): -store points at a content-addressed
// result store shared with cmd/batch, cmd/experiments and cmd/serve.
// Load points the store already holds are replayed (digest-identically)
// instead of re-run, and completed runs are written back:
//
//	sweep -net tree -vcs 2 -store results/    # second invocation is instant
//
// Telemetry (internal/telemetry): -metrics-addr serves live fabric
// state over HTTP while the sweep runs (/metrics in Prometheus text,
// /telemetry.json as JSON); -timeseries journals each run's sampled
// time series and congestion events to a JSONL sidecar next to the
// manifest.
//
//	sweep -net tree -vcs 2 -metrics-addr :9090 -timeseries series.jsonl
package main

import (
	"flag"
	"fmt"
	"runtime"

	"smart/internal/cli"
	"smart/internal/core"
	"smart/internal/plot"
	"smart/internal/results"
)

func main() {
	var cfg core.Config
	var network, alg, csvPath string
	var step float64
	var quick bool
	flags := cli.AddFlags(flag.CommandLine)
	flag.StringVar(&network, "net", "tree", "network family: tree or cube")
	flag.IntVar(&cfg.K, "k", 0, "radix")
	flag.IntVar(&cfg.N, "n", 0, "dimension/levels")
	flag.StringVar(&alg, "alg", "", "routing algorithm")
	flag.IntVar(&cfg.VCs, "vcs", 0, "virtual channels")
	flag.StringVar(&cfg.Pattern, "pattern", "uniform", "traffic pattern")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "random seed")
	flag.Int64Var(&cfg.Warmup, "warmup", 0, "warm-up cycles (default 2000)")
	flag.Int64Var(&cfg.Horizon, "horizon", 0, "horizon cycles (default 20000)")
	flag.Float64Var(&step, "step", 0.05, "offered-load step (fractions of capacity)")
	flag.BoolVar(&quick, "quick", false, "coarse grid and short horizon for a fast preview")
	flag.StringVar(&csvPath, "csv", "", "also write the series as CSV to this file")
	showPlot := flag.Bool("plot", false, "render the two CNF graphs as ASCII charts")
	flag.Parse()
	cfg.Network = core.NetworkKind(network)
	cfg.Algorithm = alg
	if quick {
		step = 0.1
		if cfg.Warmup == 0 {
			cfg.Warmup = 1000
		}
		if cfg.Horizon == 0 {
			cfg.Horizon = 8000
		}
	}

	var loads []float64
	for l := step; l <= 1.0001; l += step {
		loads = append(loads, l)
	}

	opts, finish := flags.Open("sweep", len(loads))
	flags.Apply(&cfg)
	finish(run(cfg, loads, opts, flags, csvPath, *showPlot))
}

// run sweeps the grid and prints the CNF report.
func run(cfg core.Config, loads []float64, opts core.Options, flags *cli.Flags, csvPath string, showPlot bool) error {
	swept, err := core.SweepWith(cfg, loads, runtime.GOMAXPROCS(0), opts)
	if err != nil {
		return err
	}

	full := swept[0].Config
	fmt.Printf("%s, %s traffic — Chaos Normal Form (both axes normalized to capacity)\n\n", full.Label(), full.Pattern)
	headers, rows := results.CNFRows(swept)
	fmt.Print(results.FormatTable(headers, rows))

	if showPlot {
		xs := make([]float64, len(swept))
		accepted := make([]float64, len(swept))
		latency := make([]float64, len(swept))
		for i, r := range swept {
			xs[i] = r.Sample.Offered
			accepted[i] = r.Sample.Accepted
			latency[i] = r.Sample.AvgLatency
		}
		for _, ch := range []plot.Chart{
			{Title: "accepted vs offered bandwidth", XLabel: "offered (fraction of capacity)",
				YLabel: "accepted (fraction of capacity)", Width: 60, Height: 14,
				Series: []plot.Series{{Name: full.Label(), X: xs, Y: accepted}}},
			{Title: "network latency vs offered bandwidth", XLabel: "offered (fraction of capacity)",
				YLabel: "latency (cycles)", Width: 60, Height: 14,
				Series: []plot.Series{{Name: full.Label(), X: xs, Y: latency}}},
		} {
			rendered, err := ch.Render()
			if err != nil {
				return err
			}
			fmt.Println()
			fmt.Print(rendered)
		}
	}

	series := core.SeriesOf(swept)
	sat, saturated := series.Saturation(0.02)
	fmt.Println()
	if saturated {
		fmt.Printf("saturation at %.0f%% of capacity", 100*sat)
		if stability, ok := series.PostSaturationStability(0.02); ok {
			fmt.Printf("; post-saturation throughput stability %.2f (1.00 = flat)", stability)
		}
		fmt.Println()
	} else {
		fmt.Printf("no saturation up to %.0f%% of capacity\n", 100*sat)
	}

	if csvPath != "" {
		if err := results.WriteCSVFile(csvPath, headers, rows); err != nil {
			return err
		}
		fmt.Printf("series written to %s\n", csvPath)
	}
	if flags.Manifest != "" {
		fmt.Printf("run manifest written to %s\n", flags.Manifest)
	}
	if flags.Telemetry.SidecarPath != "" {
		fmt.Printf("time series written to %s\n", flags.Telemetry.SidecarPath)
	}
	return nil
}
