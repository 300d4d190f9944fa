package main

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"

	"smart/internal/serve"
)

// smokeParams runs a workload at the smoke scale for exactly one pass.
func smokeParams(t *testing.T, workload string, trace bool) params {
	t.Helper()
	return params{
		workload: workload,
		seed:     1,
		trace:    trace,
		smoke:    true,
		workers:  2,
		pins:     pinnedDigests,
		log:      testLog{t},
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(bytes.TrimRight(p, "\n")))
	return len(p), nil
}

// readSpec loads the repository's BENCHMARK.json.
func readSpec(t *testing.T) (e2e, layers []metricDef) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloadNames)
	}
	for _, d := range spec.EndToEnd {
		e2e = append(e2e, metricDef{d.Name, d.Unit, d.Better})
	}
	for _, d := range spec.PerLayer {
		layers = append(layers, metricDef{d.Name, d.Unit, d.Better})
	}
	return e2e, layers
}

// TestSmokeEveryWorkload runs every workload untraced and traced at the
// smoke scale and checks each reports exactly the metrics BENCHMARK.json
// names, with their units, and passes every correctness check —
// including, at seed 1, the pinned digest.
func TestSmokeEveryWorkload(t *testing.T) {
	e2e, layers := readSpec(t)
	if !slices.Equal(e2e, endToEnd) || !slices.Equal(layers, layerMetrics) {
		t.Fatalf("BENCHMARK.json metrics differ from the benchmark's:\n%v\n%v", e2e, layers)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layers
			}
			o, err := runWorkload(smokeParams(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", name, trace, o.Correct, o.Attempted, o.Failed)
			}
			if len(o.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, trace, len(o.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := o.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
			}
			line, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeOutcome(line); err != nil {
				t.Errorf("%s trace=%t: result line does not decode: %v", name, trace, err)
			}
		}
	}
}

func TestSmokeWrongPinFails(t *testing.T) {
	p := smokeParams(t, paperGrid, false)
	p.pins = maps.Clone(pinnedDigests)
	p.pins["smoke/"+paperGrid] = "0000000000000000000000000000000000000000000000000000000000000000"
	o, err := runWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	if o.Correct {
		t.Error("a corrupted pinned digest passed the check")
	}
}

func TestSmokeTamperedServeBodyFails(t *testing.T) {
	p := smokeParams(t, serveMixed, false)
	p.wrapHandler = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if rec.Code == http.StatusOK && rec.Header().Get("X-Smart-Cache") == serve.CacheHit {
				body = bytes.Replace(body, []byte(`"schema"`), []byte(`"schemA"`), 1)
			}
			maps.Copy(w.Header(), rec.Header())
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
	o, err := runWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	if o.Correct {
		t.Error("a tampered hit body passed the check")
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-seconds", "0"},
		{"-compare", "only-one.json"},
		{"-trace", "2", "-workload", paperGrid},
	} {
		if code := realMain(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("bench %v exited 0", args)
		}
	}
}
