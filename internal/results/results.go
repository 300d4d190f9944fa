// Package results renders simulation outcomes in the forms the paper
// uses: aligned ASCII tables for the router-delay tables (Tables 1 and
// 2), Chaos Normal Form data series for the per-network figures (Figures
// 5 and 6: accepted bandwidth and latency versus normalized offered
// bandwidth), and the absolute-unit comparison series of Figure 7
// (bits/ns and ns). Series are also emitted as CSV for plotting.
package results

import (
	"fmt"
	"io"
	"os"
	"strings"

	"smart/internal/core"
	"smart/internal/cost"
	"smart/internal/metrics"
)

// FormatTable renders an aligned ASCII table.
func FormatTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	rule := make([]string, len(headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// WriteCSV emits a simple comma-separated table. Cells are expected not
// to contain commas (all emitters here produce numeric or label cells).
func WriteCSV(w io.Writer, headers []string, rows [][]string) error {
	if _, err := fmt.Fprintln(w, strings.Join(headers, ",")); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSVFile writes the table as CSV to a new file at path.
func WriteCSVFile(path string, headers []string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = WriteCSV(f, headers, rows)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// FormatTimings renders a slice of router timings in the layout of the
// paper's Tables 1 and 2 (delays in nanoseconds, truncated to two
// decimals as published).
func FormatTimings(timings []cost.Timing) string {
	headers := []string{"algorithm", "F", "P", "V", "T_routing", "T_crossbar", "T_link", "T_clock"}
	rows := make([][]string, len(timings))
	for i, tm := range timings {
		rows[i] = []string{
			tm.Label,
			fmt.Sprintf("%d", tm.F),
			fmt.Sprintf("%d", tm.P),
			fmt.Sprintf("%d", tm.V),
			fmt.Sprintf("%.2f", cost.Trunc2(tm.TRouting)),
			fmt.Sprintf("%.2f", cost.Trunc2(tm.TCrossbar)),
			fmt.Sprintf("%.2f", cost.Trunc2(tm.TLink)),
			fmt.Sprintf("%.2f", cost.Trunc2(tm.Clock)),
		}
	}
	return FormatTable(headers, rows)
}

// CNFRows renders one network's sweep results in Chaos Normal Form: the
// offered bandwidth (fraction of capacity) against accepted bandwidth and
// network latency in cycles, the presentation of Figures 5 and 6.
func CNFRows(results []core.Result) ([]string, [][]string) {
	headers := []string{"offered", "accepted", "latency_cycles", "p95_cycles", "packets"}
	rows := make([][]string, len(results))
	for i, r := range results {
		rows[i] = []string{
			fmt.Sprintf("%.3f", r.Sample.Offered),
			fmt.Sprintf("%.4f", r.Sample.Accepted),
			fmt.Sprintf("%.1f", r.Sample.AvgLatency),
			fmt.Sprintf("%.1f", r.Sample.P95Latency),
			fmt.Sprintf("%d", r.Sample.PacketsDelivered),
		}
	}
	return headers, rows
}

// MultiSeries renders several configurations' sweeps side by side over a
// shared offered-load axis — the layout of the comparison graphs. The
// value function picks which measurement to tabulate.
func MultiSeries(labels []string, sweeps [][]core.Result, value func(core.Result) float64, axisName string) ([]string, [][]string, error) {
	if len(labels) != len(sweeps) {
		return nil, nil, fmt.Errorf("results: %d labels for %d sweeps", len(labels), len(sweeps))
	}
	if len(sweeps) == 0 || len(sweeps[0]) == 0 {
		return nil, nil, fmt.Errorf("results: empty sweep set")
	}
	points := len(sweeps[0])
	for i, s := range sweeps {
		if len(s) != points {
			return nil, nil, fmt.Errorf("results: sweep %d has %d points, want %d", i, len(s), points)
		}
	}
	headers := append([]string{axisName}, labels...)
	rows := make([][]string, points)
	for p := 0; p < points; p++ {
		row := make([]string, 0, len(headers))
		row = append(row, fmt.Sprintf("%.3f", sweeps[0][p].Sample.Offered))
		for _, s := range sweeps {
			row = append(row, fmt.Sprintf("%.2f", value(s[p])))
		}
		rows[p] = row
	}
	return headers, rows, nil
}

// SummaryRow condenses one configuration's sweep into the headline
// numbers of the paper's §11: the saturation point (fraction of capacity
// and bits/ns) and the pre-saturation latency.
type SummaryRow struct {
	Label            string
	SaturationFrac   float64
	Saturated        bool
	SaturationBitsNS float64
	PreSatLatencyNS  float64
}

// Summarize derives a SummaryRow from a sweep ordered by offered load,
// locating saturation with the detector's metrics.Tolerance.
func Summarize(label string, results []core.Result) SummaryRow {
	row := SummaryRow{Label: label}
	series := core.SeriesOf(results)
	row.SaturationFrac, row.Saturated = series.Saturation(metrics.Tolerance)
	if len(results) == 0 {
		return row
	}
	// Convert using the configuration's clock (identical across a sweep).
	last := results[len(results)-1]
	if last.Sample.Accepted > 0 {
		row.SaturationBitsNS = row.SaturationFrac * last.AcceptedBitsNS / last.Sample.Accepted
	}
	// Pre-saturation latency: the sample nearest to half the saturation
	// load, where the network is comfortably stable.
	half := row.SaturationFrac / 2
	best := results[0]
	for _, r := range results {
		if diff(r.Sample.Offered, half) < diff(best.Sample.Offered, half) {
			best = r
		}
	}
	row.PreSatLatencyNS = best.LatencyNS
	return row
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
