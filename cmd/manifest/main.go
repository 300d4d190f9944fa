// Command manifest inspects the reproduction's JSONL files — run
// manifests (smart/run/v1 through v3), fault schedules (smart/faults/v1)
// and telemetry sidecars (smart/timeseries/v1, written by -timeseries on
// sweep/batch/experiments/netsim) — telling them apart by the schema on
// a file's first line.
//
//	manifest runs.jsonl                 # per-file summary: records, failures, batches
//	manifest faults.jsonl               # fault-schedule summary: events, canonical spec
//	manifest series.jsonl               # per-run time-series summary table
//	manifest -events series.jsonl       # the same, then each run's congestion-event log
//	manifest -plot -run 3 series.jsonl  # run 3's summary and its rate and utilization charts
//	manifest -digest a.jsonl b.jsonl    # canonical content digest per file
//
// Every file is verified as it decodes: unknown fields and schemas are
// errors, and so is a sidecar record that breaks an invariant its
// writer keeps (see telemetry.DecodeSidecar). A zero exit status is the
// verdict that every file is well formed.
//
// The digest is order- and wall-time-independent (see obs.Digest and
// telemetry.DigestRecords), so it is the right equality for the
// checkpoint/resume contract: an interrupted sweep resumed with -resume
// digests identically to an uninterrupted reference run, its manifest
// and its sidecar alike. CI's resume and telemetry smoke jobs rely on
// exactly this comparison. A fault schedule's digest hashes its
// canonical spec, so re-encoded schedules with the same semantics
// digest equal.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"smart/internal/faults"
	"smart/internal/obs"
	"smart/internal/order"
	"smart/internal/telemetry"
)

func main() {
	var v view
	flag.BoolVar(&v.digest, "digest", false, "print only the canonical content digest of each file")
	flag.BoolVar(&v.events, "events", false, "with a sidecar, print each run's congestion-event log")
	flag.BoolVar(&v.plot, "plot", false, "with a sidecar, render throughput and per-class utilization over time as ASCII charts")
	flag.IntVar(&v.run, "run", -1, "with a sidecar, select one record by position in the file (default: all)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "manifest: at least one file is required")
		os.Exit(2)
	}
	for _, path := range flag.Args() {
		if err := inspect(os.Stdout, path, v); err != nil {
			fmt.Fprintln(os.Stderr, "manifest:", err)
			os.Exit(1)
		}
	}
}

// view is what the flags ask to see of each file.
type view struct {
	digest, events, plot bool
	run                  int // a sidecar record's position, -1 for all
}

// inspect decodes the file at path by the schema on its first line and
// prints what v asks for to w.
func inspect(w io.Writer, path string, v view) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	switch schemaOf(data) {
	case faults.Schema:
		sched, err := faults.Decode(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if v.digest {
			sum := sha256.Sum256([]byte(sched.Canonical()))
			fmt.Fprintf(w, "%s  %s\n", hex.EncodeToString(sum[:]), path)
			return nil
		}
		summarizeFaults(w, path, sched)
		return nil
	case telemetry.Schema:
		recs, err := telemetry.DecodeSidecar(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if v.digest {
			fmt.Fprintf(w, "%s  %s\n", telemetry.DigestRecords(recs), path)
			return nil
		}
		return printSeries(w, path, recs, v)
	default:
		recs, err := obs.DecodeManifest(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if v.digest {
			fmt.Fprintf(w, "%s  %s\n", obs.Digest(recs), path)
			return nil
		}
		summarize(w, path, recs)
		return nil
	}
}

// schemaOf returns the schema named by the first value on data's first
// line, "" when it names none.
func schemaOf(data []byte) string {
	line, _, _ := bytes.Cut(data, []byte{'\n'})
	var head struct {
		Schema string `json:"schema"`
	}
	// A line that does not decode leaves the schema empty, and the file
	// goes to the run-manifest decoder, whose error says what is wrong.
	_ = json.NewDecoder(bytes.NewReader(line)).Decode(&head)
	return head.Schema
}

func summarizeFaults(w io.Writer, path string, sched faults.Schedule) {
	downs, ups := 0, 0
	for _, ev := range sched {
		if ev.Kind == faults.LinkDown || ev.Kind == faults.RouterDown {
			downs++
		} else {
			ups++
		}
	}
	fmt.Fprintf(w, "%s: fault schedule (%s), %d events (%d down, %d up)\n", path, faults.Schema, len(sched), downs, ups)
	if spec := sched.Canonical(); spec != "" {
		fmt.Fprintf(w, "  canonical: %s\n", spec)
	}
}

func summarize(w io.Writer, path string, recs []obs.RunRecord) {
	completed, failed, faulted := 0, 0, 0
	batches := map[string]int{}
	for _, rec := range recs {
		if rec.Failure != "" {
			failed++
		} else {
			completed++
		}
		if rec.Faults != "" {
			faulted++
		}
		batches[rec.Batch]++
	}
	fmt.Fprintf(w, "%s: %d records (%d completed, %d failed), digest %s\n", path, len(recs), completed, failed, obs.Digest(recs))
	if faulted > 0 {
		fmt.Fprintf(w, "  %d records carry a fault schedule\n", faulted)
	}
	for _, name := range order.Keys(batches) {
		label := name
		if label == "" {
			label = "(unbatched)"
		}
		fmt.Fprintf(w, "  %-40s %d records\n", label, batches[name])
	}
	for _, rec := range recs {
		if rec.Failure != "" {
			fmt.Fprintf(w, "  FAILED %s index %d (%s): %s\n", rec.Label, rec.Index, rec.Fingerprint, rec.Failure)
		}
	}
}
