package main

import (
	"fmt"
	"io"

	"smart/internal/plot"
	"smart/internal/results"
	"smart/internal/telemetry"
)

// This file prints telemetry sidecars (smart/timeseries/v1): the per-run
// summary table, the congestion-event log and the rate charts.

// printSeries prints a sidecar's per-run summary table, then under
// v.events each run's event log and under v.plot its charts, for every
// record or, with v.run set, the one at that position.
func printSeries(w io.Writer, path string, recs []telemetry.Record, v view) error {
	base := max(v.run, 0)
	if v.run >= 0 {
		if v.run >= len(recs) {
			return fmt.Errorf("-run %d: file has %d records", v.run, len(recs))
		}
		recs = recs[v.run : v.run+1]
	}
	summarizeSeries(w, path, recs)
	if v.events {
		printEvents(w, recs, base)
	}
	if v.plot {
		return plotRecords(w, recs, base)
	}
	return nil
}

// summarizeSeries prints a sidecar's per-run summary table.
func summarizeSeries(w io.Writer, path string, recs []telemetry.Record) {
	fmt.Fprintf(w, "%s: %d runs, digest %s\n\n", path, len(recs), telemetry.DigestRecords(recs))
	headers := []string{"run", "configuration", "pattern", "load", "points", "events", "mean del/cyc", "peak in-flight", "peak queued", "hot class"}
	rows := make([][]string, 0, len(recs))
	for i, rec := range recs {
		s := telemetry.Summarize(rec)
		hot := "-"
		if s.HotClass != "" {
			hot = fmt.Sprintf("%s %.2f", s.HotClass, s.HotClassUtil)
		}
		status := rec.Label
		if rec.Failure != "" {
			status += " (FAILED)"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", i),
			status,
			rec.Pattern,
			fmt.Sprintf("%.3f", rec.Load),
			fmt.Sprintf("%d", s.Points),
			fmt.Sprintf("%d", s.Events),
			fmt.Sprintf("%.2f", s.MeanDelivery),
			fmt.Sprintf("%d", s.PeakInFlight),
			fmt.Sprintf("%d", s.PeakQueued),
			hot,
		})
	}
	fmt.Fprint(w, results.FormatTable(headers, rows))
}

// printEvents prints each record's congestion-event log; base is the
// position of the first record in its file.
func printEvents(w io.Writer, recs []telemetry.Record, base int) {
	for off, rec := range recs {
		i := base + off
		if len(rec.Events) == 0 {
			continue
		}
		fmt.Fprintf(w, "\nrun %d (%s, %s, load %.3f) events:\n", i, rec.Label, rec.Pattern, rec.Load)
		for _, ev := range rec.Events {
			line := fmt.Sprintf("  cycle %-8d %-17s", ev.Cycle, ev.Kind)
			if ev.Class != "" {
				line += " " + ev.Class
			}
			if ev.Detail != "" {
				line += "  " + ev.Detail
			}
			fmt.Fprintln(w, line)
		}
		if rec.DroppedEvents > 0 {
			fmt.Fprintf(w, "  (+%d events dropped)\n", rec.DroppedEvents)
		}
	}
}

// plotRecords charts each record's flit rates and class utilization
// over time; base is the position of the first record in its file.
func plotRecords(w io.Writer, recs []telemetry.Record, base int) error {
	for off, rec := range recs {
		i := base + off
		rates := telemetry.Rates(rec)
		if len(rates) == 0 {
			continue
		}
		xs := make([]float64, len(rates))
		del := make([]float64, len(rates))
		inj := make([]float64, len(rates))
		for j, rp := range rates {
			xs[j] = float64(rp.Cycle)
			del[j] = rp.DeliveryRate
			inj[j] = rp.InjectionRate
		}
		charts := []plot.Chart{{
			Title:  fmt.Sprintf("run %d: flit rates over time (%s, %s, load %.3f)", i, rec.Label, rec.Pattern, rec.Load),
			XLabel: "cycle", YLabel: "flits/cycle", Width: 64, Height: 12,
			Series: []plot.Series{{Name: "delivered", X: xs, Y: del}, {Name: "injected", X: xs, Y: inj}},
		}}
		if len(rec.ClassNames) > 0 {
			util := plot.Chart{
				Title:  fmt.Sprintf("run %d: channel-class utilization over time", i),
				XLabel: "cycle", YLabel: "utilization", Width: 64, Height: 12,
			}
			for c, name := range rec.ClassNames {
				if rec.ClassLinks[c] == 0 {
					continue
				}
				ys := make([]float64, len(rates))
				for j, rp := range rates {
					ys[j] = rp.ClassUtil[c]
				}
				util.Series = append(util.Series, plot.Series{Name: name, X: xs, Y: ys})
			}
			charts = append(charts, util)
		}
		for _, ch := range charts {
			rendered, err := ch.Render()
			if err != nil {
				return err
			}
			fmt.Fprintln(w)
			fmt.Fprint(w, rendered)
		}
	}
	return nil
}
