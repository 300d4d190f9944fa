package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// setupFloorS is the least setup_s change counted as a regression:
// set-up times are short enough that a share of them can fall inside
// scheduler noise.
const setupFloorS = 0.05

// benchSpec is the part of BENCHMARK.json that -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareRow is one workload's end-to-end metric in two records.
type compareRow struct {
	workload, metric, unit string
	base, head             float64
	// change is the head median's change from the base median, as a
	// share of the base median; spread is the wider of the two records'
	// interquartile range over median.
	change, spread, bound float64
	status                string
}

// Row statuses. A metric is unresolved when run-to-run spread is wider
// than its bound, so no-regression cannot be told from noise; it still
// reads better when every head run beats every base run.
const (
	statusRegressed  = "regressed"
	statusMissing    = "missing"
	statusUnresolved = "unresolved"
	statusBetter     = "better"
	statusUnchanged  = "unchanged"
)

// compareRecords compares every end-to-end metric of every workload in
// base against head. Each workload also gets a "failed" row, regressed
// when a head run failed a check or head failed more operations than
// base: a record with wrong outputs does not count, however fast.
func compareRecords(spec benchSpec, base, head record) []compareRow {
	var rows []compareRow
	for _, name := range workloadNames {
		bw, ok := base.Workloads[name]
		if !ok {
			continue
		}
		hw := head.Workloads[name]
		row := compareRow{workload: name, metric: "failed", unit: "count", base: float64(bw.Failed), status: statusMissing}
		if hw != nil {
			row.head = float64(hw.Failed)
			row.status = statusUnchanged
			if !hw.Correct || hw.Failed > bw.Failed {
				row.status = statusRegressed
			}
		}
		rows = append(rows, row)
		for _, m := range spec.EndToEnd {
			row := compareRow{workload: name, metric: m.Name, unit: m.Unit, bound: m.Bound, status: statusMissing}
			var b, h *series
			b = bw.Metrics[m.Name]
			if hw != nil {
				h = hw.Metrics[m.Name]
			}
			if b == nil || h == nil || len(b.Values) == 0 || len(h.Values) == 0 {
				rows = append(rows, row)
				continue
			}
			row.base, row.head = b.Median, h.Median
			row.change = ratio(h.Median-b.Median, b.Median)
			row.spread = max(spread(b.Values), spread(h.Values))
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			allowed := m.Bound * b.Median
			if m.Name == "setup_s" {
				allowed = max(allowed, setupFloorS)
			}
			switch {
			case sign*(h.Median-b.Median) > allowed:
				row.status = statusRegressed
			case allBetter(h.Values, b.Values, sign):
				row.status = statusBetter
			case row.spread > m.Bound:
				row.status = statusUnresolved
			default:
				row.status = statusUnchanged
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// allBetter reports whether every head value beats every base value,
// lower being better for sign 1 and higher for sign -1.
func allBetter(head, base []float64, sign float64) bool {
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareFiles loads the spec and two records, prints every row, and
// returns 1 when any metric regressed or is missing from head.
func compareFiles(specPath, basePath, headPath string, stdout, stderr io.Writer) int {
	var spec benchSpec
	var base, head record
	for _, f := range []struct {
		path string
		into any
	}{{specPath, &spec}, {basePath, &base}, {headPath, &head}} {
		data, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(data, f.into)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: reading %s: %v\n", f.path, err)
			return 2
		}
	}
	if base.Schema != recordSchema || head.Schema != recordSchema {
		fmt.Fprintf(stderr, "bench: records must have schema %s\n", recordSchema)
		return 2
	}
	rows := compareRecords(spec, base, head)
	fmt.Fprintf(stdout, "%-15s %-12s %-5s %12s %12s %8s %7s %6s  %s\n", "workload", "metric", "unit", "base", "head", "change", "spread", "bound", "status")
	bad := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-15s %-12s %-5s %12.6g %12.6g %+7.1f%% %6.1f%% %5.0f%%  %s\n",
			r.workload, r.metric, r.unit, r.base, r.head, 100*r.change, 100*r.spread, 100*r.bound, r.status)
		if r.status == statusRegressed || r.status == statusMissing {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d of %d rows regressed or are missing\n", bad, len(rows))
		return 1
	}
	return 0
}
