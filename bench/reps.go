package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// recordSchema versions the -o record layout.
const recordSchema = "smart/bench/v1"

// record is what -reps writes: the host, the settings, and every run of
// every workload.
type record struct {
	Schema     string                     `json:"schema"`
	GoVersion  string                     `json:"go_version"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	NumCPU     int                        `json:"nproc"`
	Seed       uint64                     `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Trace      bool                       `json:"trace"`
	Size       string                     `json:"size"`
	Workloads  map[string]*workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]*series `json:"metrics"`
}

// series is one metric over a workload's runs, in seed order.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// repeat runs each named workload reps times, each run a child process
// of this binary with the next seed, one after another so that runs do
// not compete for the host. It prints a summary table and, with out set,
// writes the record there.
func repeat(p params, names []string, reps int, out string, stdout, stderr io.Writer) int {
	for _, name := range names {
		if _, ok := setups[name]; !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
			return 2
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rec := record{
		Schema:     recordSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       p.seed,
		Seconds:    p.seconds,
		Trace:      p.trace,
		Size:       p.size(),
		Workloads:  map[string]*workloadRecord{},
	}
	trace := "0"
	if p.trace {
		trace = "1"
	}
	code := 0
	for _, name := range names {
		wr := &workloadRecord{Correct: true, Metrics: map[string]*series{}}
		for i := range reps {
			seed := p.seed + uint64(i)
			o, err := runChild(exe, []string{
				"-workload", name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64), "-trace", trace,
				"-size", p.size(),
			}, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", name, seed, err)
				wr.Correct = false
				continue
			}
			wr.Correct = wr.Correct && o.Correct
			wr.Attempted += o.Attempted
			wr.Failed += o.Failed
			for k, m := range o.Metrics {
				s := wr.Metrics[k]
				if s == nil {
					s = &series{Unit: m.Unit}
					wr.Metrics[k] = s
				}
				s.Values = append(s.Values, m.Value)
			}
		}
		for _, s := range wr.Metrics {
			s.Median = median(s.Values)
			s.Q1, s.Q3 = quartiles(s.Values)
		}
		if !wr.Correct {
			code = 1
		}
		rec.Workloads[name] = wr
	}
	printRecord(stdout, names, rec)
	if out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// runChild runs this binary with args and decodes its last output line.
// A child that printed no result line failed to run at all.
func runChild(exe string, args []string, stderr io.Writer) (outcome, error) {
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	if last == "" {
		return outcome{}, fmt.Errorf("no result line: %v", runErr)
	}
	o, err := decodeOutcome([]byte(last))
	if err != nil {
		return o, errors.Join(err, runErr)
	}
	return o, nil
}

// printRecord writes one row per workload and metric: the median, the
// quartiles and the spread (interquartile range over median).
func printRecord(w io.Writer, names []string, rec record) {
	fmt.Fprintf(w, "%-15s %-32s %-6s %12s %12s %12s %7s\n", "workload", "metric", "unit", "median", "q1", "q3", "spread")
	for _, name := range names {
		wr := rec.Workloads[name]
		keys := make([]string, 0, len(wr.Metrics))
		for k := range wr.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := wr.Metrics[k]
			fmt.Fprintf(w, "%-15s %-32s %-6s %12.6g %12.6g %12.6g %6.1f%%\n",
				name, k, s.Unit, s.Median, s.Q1, s.Q3, 100*spread(s.Values))
		}
		fmt.Fprintf(w, "%-15s correct=%t attempted=%d failed=%d\n", name, wr.Correct, wr.Attempted, wr.Failed)
	}
}
