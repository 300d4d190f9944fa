// Command batch runs a declarative JSON study: a named list of
// configurations, each a core.Config with unset fields taking the paper's
// defaults. Results are printed as a table and optionally dumped as CSV.
//
//	batch -config study.json [-csv results.csv]
//	batch -scaffold > study.json    # emit a template to start from
//
// The run options are the grid set of internal/cli, shared with
// cmd/sweep and cmd/experiments; configs run in parallel across
// GOMAXPROCS.
//
// Observability (internal/obs): -v adds structured run logs, a live
// progress line and a final per-stage engine timing report on stderr;
// -manifest writes one JSONL record per configuration; and
// -cpuprofile/-memprofile/-trace feed go tool pprof/trace.
//
// Resilience (internal/resilience): a failing or panicking config no
// longer aborts the study — every failure is reported at the end;
// -checkpoint journals completed configs to a directory, Ctrl-C flushes
// the checkpoint, partial manifest and store, -resume skips checkpointed
// configs on the next invocation, and -watchdog aborts deadlocked configs with a stall
// diagnosis. -watchdog, -faults and -burst fill only the configs that
// leave the field unset.
//
// Caching (internal/store): -store points at a content-addressed
// result store shared with cmd/sweep, cmd/experiments and cmd/serve;
// configs the store holds are replayed instead of re-run, and
// completed runs are written back.
//
// Telemetry (internal/telemetry): -metrics-addr serves live fabric
// state over HTTP while the study runs; -timeseries journals each
// config's sampled time series and congestion events to a JSONL
// sidecar.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"smart/internal/cli"
	"smart/internal/core"
	"smart/internal/results"
)

func main() {
	flags := cli.AddFlags(flag.CommandLine)
	configPath := flag.String("config", "", "path to the JSON batch description")
	csvPath := flag.String("csv", "", "also write results as CSV")
	scaffold := flag.Bool("scaffold", false, "print a template batch file and exit")
	flag.Parse()

	if *scaffold {
		template := core.Batch{
			Name: "example-study",
			Configs: []core.Config{
				{Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 2, Pattern: core.PatternUniform, Load: 0.5},
				{Network: core.NetworkCube, Algorithm: core.AlgDuato, VCs: 4, Pattern: core.PatternUniform, Load: 0.5},
			},
		}
		if err := core.EncodeBatch(os.Stdout, template); err != nil {
			fmt.Fprintln(os.Stderr, "batch:", err)
			os.Exit(1)
		}
		return
	}
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "batch: -config is required (or -scaffold for a template)")
		os.Exit(2)
	}
	b, err := readBatch(*configPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "batch:", err)
		os.Exit(1)
	}

	opts, finish := flags.Open("batch", len(b.Configs))
	for i := range b.Configs {
		flags.Apply(&b.Configs[i])
	}
	finish(run(b, opts, flags, *csvPath))
}

func readBatch(path string) (core.Batch, error) {
	file, err := os.Open(path)
	if err != nil {
		return core.Batch{}, err
	}
	defer file.Close()
	return core.DecodeBatch(file)
}

// run executes the study and prints its table.
func run(b core.Batch, opts core.Options, flags *cli.Flags, csvPath string) error {
	res, err := b.RunWith(runtime.GOMAXPROCS(0), opts)
	if err != nil {
		return err
	}

	fmt.Printf("batch %q: %d simulations\n\n", b.Name, len(res))
	headers := []string{"configuration", "pattern", "offered", "accepted", "latency cycles", "latency ns", "bits/ns"}
	rows := make([][]string, len(res))
	for i, r := range res {
		rows[i] = []string{
			r.Config.Label(),
			r.Config.Pattern,
			fmt.Sprintf("%.3f", r.Sample.Offered),
			fmt.Sprintf("%.4f", r.Sample.Accepted),
			fmt.Sprintf("%.1f", r.Sample.AvgLatency),
			fmt.Sprintf("%.0f", r.LatencyNS),
			fmt.Sprintf("%.1f", r.AcceptedBitsNS),
		}
	}
	fmt.Print(results.FormatTable(headers, rows))

	if csvPath != "" {
		if err := results.WriteCSVFile(csvPath, headers, rows); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", csvPath)
	}
	if flags.Manifest != "" {
		fmt.Printf("\nrun manifest written to %s\n", flags.Manifest)
	}
	if flags.Timeseries != "" {
		fmt.Printf("\ntime series written to %s\n", flags.Timeseries)
	}
	return nil
}
