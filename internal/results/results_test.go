package results

import (
	"strings"
	"testing"

	"smart/internal/core"
	"smart/internal/cost"
	"smart/internal/metrics"
)

func TestFormatTableAlignment(t *testing.T) {
	out := FormatTable([]string{"a", "long-header"}, [][]string{{"wide-cell", "1"}, {"x", "22"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
	width := len(lines[0])
	for i, l := range lines {
		if len(l) != width && i != 0 {
			// Trailing-space differences aside, columns must align: check
			// the second column starts at the same offset everywhere.
			t.Fatalf("line %d misaligned: %q", i, l)
		}
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatalf("missing rule line: %q", lines[1])
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	err := WriteCSV(&b, []string{"x", "y"}, [][]string{{"1", "2"}, {"3", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	want := "x,y\n1,2\n3,4\n"
	if b.String() != want {
		t.Fatalf("CSV %q, want %q", b.String(), want)
	}
}

func TestFormatTimingsShowsPaperValues(t *testing.T) {
	out := FormatTimings(cost.Table1())
	for _, want := range []string{"deterministic", "duato", "5.90", "7.80", "5.85", "6.34"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
	out = FormatTimings(cost.Table2())
	for _, want := range []string{"adaptive-1vc", "8.06", "9.26", "10.46", "9.64", "10.24", "10.84"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q:\n%s", want, out)
		}
	}
}

func fakeResults() []core.Result {
	return []core.Result{
		{Sample: metrics.Sample{Offered: 0.2, Accepted: 0.2, AvgLatency: 60, P95Latency: 80, PacketsDelivered: 100}, OfferedBitsNS: 105, AcceptedBitsNS: 105, LatencyNS: 380},
		{Sample: metrics.Sample{Offered: 0.4, Accepted: 0.35, AvgLatency: 120, P95Latency: 200, PacketsDelivered: 180}, OfferedBitsNS: 210, AcceptedBitsNS: 184, LatencyNS: 760},
	}
}

func TestCNFRows(t *testing.T) {
	headers, rows := CNFRows(fakeResults())
	if headers[0] != "offered" || len(rows) != 2 {
		t.Fatalf("headers %v rows %d", headers, len(rows))
	}
	if rows[0][0] != "0.200" || rows[1][1] != "0.3500" || rows[0][2] != "60.0" {
		t.Fatalf("rows %v", rows)
	}
}

func TestMultiSeries(t *testing.T) {
	sweeps := [][]core.Result{fakeResults(), fakeResults()}
	headers, rows, err := MultiSeries([]string{"a", "b"}, sweeps, func(r core.Result) float64 { return r.AcceptedBitsNS }, "offered")
	if err != nil {
		t.Fatal(err)
	}
	if len(headers) != 3 || len(rows) != 2 {
		t.Fatalf("shape %v x %d", headers, len(rows))
	}
	if rows[0][1] != "105.00" || rows[1][2] != "184.00" {
		t.Fatalf("values %v", rows)
	}
}

func TestMultiSeriesErrors(t *testing.T) {
	if _, _, err := MultiSeries([]string{"a"}, nil, nil, "x"); err == nil {
		t.Error("label/sweep mismatch accepted")
	}
	if _, _, err := MultiSeries(nil, nil, nil, "x"); err == nil {
		t.Error("empty sweep set accepted")
	}
	ragged := [][]core.Result{fakeResults(), fakeResults()[:1]}
	if _, _, err := MultiSeries([]string{"a", "b"}, ragged, func(core.Result) float64 { return 0 }, "x"); err == nil {
		t.Error("ragged sweeps accepted")
	}
}

func TestSummarize(t *testing.T) {
	row := Summarize("cube duato", fakeResults())
	if !row.Saturated {
		t.Fatal("saturation not detected")
	}
	if row.SaturationFrac <= 0.2 || row.SaturationFrac >= 0.4 {
		t.Fatalf("saturation %v outside (0.2,0.4)", row.SaturationFrac)
	}
	if row.PreSatLatencyNS != 380 {
		t.Fatalf("pre-sat latency %v (should pick the low-load sample)", row.PreSatLatencyNS)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	row := Summarize("empty", nil)
	if row.Saturated || row.SaturationBitsNS != 0 {
		t.Fatalf("empty summary %+v", row)
	}
}

func TestSummarizeZeroAccepted(t *testing.T) {
	dead := []core.Result{{Sample: metrics.Sample{Offered: 0.5, Accepted: 0}}}
	row := Summarize("dead", dead)
	if row.SaturationBitsNS != 0 {
		t.Fatalf("zero-accepted summary produced %+v", row)
	}
	if !row.Saturated {
		t.Fatal("a dead network is certainly saturated")
	}
}
