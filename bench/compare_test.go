package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSpec mirrors the shape of BENCHMARK.json's end_to_end list.
func testSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
		{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.10},
		{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.10}
	]}`), &spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// testRecord builds a one-workload record from metric → values.
func testRecord(values map[string][]float64) record {
	wr := &workloadRecord{Correct: true, Metrics: map[string]*series{}}
	for name, v := range values {
		s := &series{Values: v, Median: median(v)}
		s.Q1, s.Q3 = quartiles(v)
		wr.Metrics[name] = s
	}
	return record{Schema: recordSchema, Workloads: map[string]*workloadRecord{paperGrid: wr}}
}

func statuses(rows []compareRow) map[string]string {
	m := map[string]string{}
	for _, r := range rows {
		m[r.metric] = r.status
	}
	return m
}

func TestCompareRecords(t *testing.T) {
	spec := testSpec(t)
	base := testRecord(map[string][]float64{
		"setup_s": {0.10, 0.10, 0.11, 0.10, 0.10},
		"pass_s":  {4.0, 4.1, 4.0, 4.05, 4.02},
		"rate":    {100, 101, 99, 100, 100},
	})
	for _, tc := range []struct {
		name string
		head map[string][]float64
		// wrong and failed mark head's runs as having failed a check or
		// some operations.
		wrong  bool
		failed int
		want   map[string]string
	}{
		{
			name: "same numbers",
			head: map[string][]float64{
				"setup_s": {0.10, 0.11, 0.10, 0.10, 0.10},
				"pass_s":  {4.01, 4.0, 4.1, 4.03, 4.02},
				"rate":    {100, 100, 99, 101, 100},
			},
			want: map[string]string{"setup_s": statusUnchanged, "pass_s": statusUnchanged, "rate": statusUnchanged},
		},
		{
			name: "slower and lower rate",
			head: map[string][]float64{
				"setup_s": {0.10, 0.10, 0.10, 0.10, 0.10},
				"pass_s":  {4.6, 4.7, 4.6, 4.65, 4.62},
				"rate":    {80, 81, 79, 80, 80},
			},
			want: map[string]string{"setup_s": statusUnchanged, "pass_s": statusRegressed, "rate": statusRegressed},
		},
		{
			// +40% on a 0.1 s set-up is 0.04 s: inside the absolute floor.
			name: "set-up within the floor",
			head: map[string][]float64{
				"setup_s": {0.14, 0.14, 0.14, 0.14, 0.14},
				"pass_s":  {4.0, 4.1, 4.0, 4.05, 4.02},
				"rate":    {100, 101, 99, 100, 100},
			},
			want: map[string]string{"setup_s": statusUnchanged, "pass_s": statusUnchanged, "rate": statusUnchanged},
		},
		{
			name: "noisy head",
			head: map[string][]float64{
				"setup_s": {0.10, 0.10, 0.10, 0.10, 0.10},
				"pass_s":  {3.0, 5.0, 4.0, 3.5, 4.4},
				"rate":    {100, 101, 99, 100, 100},
			},
			want: map[string]string{"setup_s": statusUnchanged, "pass_s": statusUnresolved, "rate": statusUnchanged},
		},
		{
			name: "every head run better",
			head: map[string][]float64{
				"setup_s": {0.10, 0.10, 0.10, 0.10, 0.10},
				"pass_s":  {3.0, 3.1, 3.0, 3.05, 3.02},
				"rate":    {130, 131, 129, 130, 130},
			},
			want: map[string]string{"setup_s": statusUnchanged, "pass_s": statusBetter, "rate": statusBetter},
		},
		{
			name: "metric missing from head",
			head: map[string][]float64{
				"setup_s": {0.10, 0.10, 0.10, 0.10, 0.10},
				"pass_s":  {4.0, 4.1, 4.0, 4.05, 4.02},
			},
			want: map[string]string{"setup_s": statusUnchanged, "pass_s": statusUnchanged, "rate": statusMissing},
		},
		{
			name:  "same numbers, wrong output",
			head:  map[string][]float64{"setup_s": {0.10, 0.10, 0.10}, "pass_s": {4.0, 4.1, 4.0}, "rate": {100, 101, 99}},
			wrong: true,
			want:  map[string]string{"failed": statusRegressed, "pass_s": statusUnchanged},
		},
		{
			name:   "same numbers, failed operations",
			head:   map[string][]float64{"setup_s": {0.10, 0.10, 0.10}, "pass_s": {4.0, 4.1, 4.0}, "rate": {100, 101, 99}},
			failed: 2,
			want:   map[string]string{"failed": statusRegressed, "pass_s": statusUnchanged},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			head := testRecord(tc.head)
			head.Workloads[paperGrid].Correct = !tc.wrong
			head.Workloads[paperGrid].Failed = tc.failed
			got := statuses(compareRecords(spec, base, head))
			if _, ok := tc.want["failed"]; !ok {
				tc.want["failed"] = statusUnchanged
			}
			for metric, want := range tc.want {
				if got[metric] != want {
					t.Errorf("%s: status %q, want %q", metric, got[metric], want)
				}
			}
		})
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("spec.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.1},
	}})
	base := write("base.json", testRecord(map[string][]float64{"pass_s": {4.0, 4.1, 4.0}}))
	same := write("same.json", testRecord(map[string][]float64{"pass_s": {4.05, 4.0, 4.1}}))
	slow := write("slow.json", testRecord(map[string][]float64{"pass_s": {5.0, 5.1, 5.0}}))
	wrong := testRecord(map[string][]float64{"pass_s": {4.05, 4.0, 4.1}})
	wrong.Workloads[paperGrid].Correct = false
	broken := write("broken.json", wrong)

	var out, errOut bytes.Buffer
	if code := compareFiles(spec, base, same, &out, &errOut); code != 0 {
		t.Errorf("equal records: exit %d, want 0\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := compareFiles(spec, base, slow, &out, &errOut); code != 1 {
		t.Errorf("regressed record: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), statusRegressed) {
		t.Errorf("regressed record: output does not name the regression:\n%s", out.String())
	}
	out.Reset()
	if code := compareFiles(spec, base, broken, &out, &errOut); code != 1 {
		t.Errorf("record with wrong outputs: exit %d, want 1\n%s", code, out.String())
	}
	if code := compareFiles(spec, base, filepath.Join(dir, "absent.json"), &out, &errOut); code != 2 {
		t.Errorf("unreadable record: exit %d, want 2", code)
	}
}
