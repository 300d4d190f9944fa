// Command bench is the repository's end-to-end benchmark. It drives the
// simulator through its public entry points on four workloads — the
// paper's figure grid, sharded 4096-node runs, a degraded sweep with
// every observer on, and the served result cache — checks every output,
// and prints one JSON line with the metrics named in BENCHMARK.json:
//
//	bash bench/run.sh --workload paper_grid --seed 1 --seconds 20 --trace 0
//
// --trace 1 repeats the workload with observers attached from outside
// and reports the per-layer metrics instead. -reps runs every workload
// that many times, each run in its own child process, and -compare
// checks two such records against the bounds in BENCHMARK.json. See
// README.md for the metric catalogue and the workloads' reasons.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the command and returns its exit code: 0 for a run whose
// outputs were all correct, 1 otherwise, 2 for bad usage.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all (with -reps)")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measurement time of one run, in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	size := fs.String("size", "full", "workload scale: full, or smoke for a seconds-long check")
	reps := fs.Int("reps", 0, "run each workload this many times, each in a child process, with seeds seed, seed+1, ...")
	out := fs.String("o", "", "with -reps, also write the record to this file")
	compare := fs.Bool("compare", false, "compare two -o records against the bounds in BENCHMARK.json: -compare base.json head.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files")
			return 2
		}
		return compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || (*size != "full" && *size != "smoke") {
		fs.Usage()
		return 2
	}
	p := params{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		smoke:   *size == "smoke",
		workers: min(runtime.GOMAXPROCS(0), 4),
		pins:    pinnedDigests,
		log:     stderr,
	}
	if *reps > 0 || *workload == "all" {
		names := workloadNames
		if *workload != "all" {
			names = []string{*workload}
		}
		return repeat(p, names, max(*reps, 1), *out, stdout, stderr)
	}
	p.workload = *workload
	o, err := runWorkload(p)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !o.Correct {
		return 1
	}
	return 0
}

// outcome is the JSON line a run prints last on standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// decodeOutcome parses a run's last output line, rejecting anything but
// the four keys.
func decodeOutcome(line []byte) (outcome, error) {
	var o outcome
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&o); err != nil {
		return o, fmt.Errorf("decoding run result: %w", err)
	}
	if o.Metrics == nil {
		return o, errors.New("run result has no metrics")
	}
	return o, nil
}
