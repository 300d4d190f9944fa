package telemetry_test

import (
	"encoding/json"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"smart/internal/telemetry"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden /metrics fixture")

const metricsGoldenPath = "testdata/golden_metrics.txt"

// scrape GETs one path from the server's handler.
func scrape(t *testing.T, srv *telemetry.Server, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	body, err := io.ReadAll(w.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return w.Result().StatusCode, string(body)
}

// TestMetricsGoldenResponse pins the full /metrics body for a
// deterministic fixed-seed run: the exposition format, metric names,
// label sets and every value. Counter changes in the fabric or format
// changes in the server both surface here as a readable diff.
// Regenerate with:
//
//	go test ./internal/telemetry -run TestMetricsGoldenResponse -update-golden
func TestMetricsGoldenResponse(t *testing.T) {
	s := newSim(t, 0.4)
	run := telemetry.RunInfo{Batch: "golden", Index: 2, Label: "tree adaptive-2vc",
		Pattern: "uniform", Seed: 7, Load: 0.4, Fingerprint: s.Config.Fingerprint()}
	sp := telemetry.NewSampler(s.Fabric, s.Engine, run, telemetry.Config{Every: 100})
	sp.Register(s.Engine)
	srv := telemetry.NewServer()
	srv.Attach(sp)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}

	status, body := scrape(t, srv, "/metrics")
	if status != 200 {
		t.Fatalf("/metrics status %d", status)
	}
	// Two scrapes of unchanged state must be byte-identical — the
	// deterministic-ordering contract (attach-order iteration, no maps,
	// no wall time).
	if _, again := scrape(t, srv, "/metrics"); again != body {
		t.Fatal("two scrapes of the same state differ")
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGoldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", metricsGoldenPath, len(body))
		return
	}
	want, err := os.ReadFile(metricsGoldenPath)
	if err != nil {
		t.Fatalf("reading golden fixture (run with -update-golden to create): %v", err)
	}
	if body != string(want) {
		t.Fatalf("/metrics drifted from the golden fixture.\n--- got ---\n%s\n--- want ---\n%s", body, want)
	}
}

func TestMetricsServesGridAndLifecycle(t *testing.T) {
	s := newSim(t, 0.4)
	sp := telemetry.NewSampler(s.Fabric, s.Engine, telemetry.RunInfo{Label: "x"}, telemetry.Config{Every: 100})
	sp.Register(s.Engine)
	srv := telemetry.NewServer()
	srv.Attach(sp)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	_, body := scrape(t, srv, "/metrics")
	if !strings.Contains(body, "smart_runs_active 1") {
		t.Fatalf("active run not reported:\n%s", body)
	}
	if !strings.Contains(body, "smart_run_flits_delivered_total") {
		t.Fatalf("run counters missing:\n%s", body)
	}
	srv.Detach(sp, false)
	_, body = scrape(t, srv, "/metrics")
	if !strings.Contains(body, "smart_runs_active 0") || !strings.Contains(body, "smart_runs_completed_total 1") {
		t.Fatalf("detach not reflected:\n%s", body)
	}
	if strings.Contains(body, "smart_run_flits_delivered_total") {
		t.Fatalf("detached run still served:\n%s", body)
	}
}

// TestTelemetryJSONEndpoint checks that /telemetry.json serves each
// attached run's sidecar record as it stands: RecordOf, and a line
// DecodeSidecar accepts.
func TestTelemetryJSONEndpoint(t *testing.T) {
	s := newSim(t, 0.4)
	run := telemetry.RunInfo{Label: "x", Load: 0.4, Fingerprint: s.Config.Fingerprint()}
	sp := telemetry.NewSampler(s.Fabric, s.Engine, run, telemetry.Config{Every: 100})
	sp.Register(s.Engine)
	srv := telemetry.NewServer()
	srv.Attach(sp)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	status, body := scrape(t, srv, "/telemetry.json")
	if status != 200 {
		t.Fatalf("/telemetry.json status %d", status)
	}
	var got struct {
		RunsActive int                `json:"runs_active"`
		Runs       []telemetry.Record `json:"runs"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	if got.RunsActive != 1 || len(got.Runs) != 1 {
		t.Fatalf("runs_active %d, runs %d", got.RunsActive, len(got.Runs))
	}
	if want := telemetry.RecordOf(sp); !reflect.DeepEqual(got.Runs[0], want) || len(want.Points) == 0 {
		t.Fatalf("served run\n got %+v\nwant RecordOf %+v", got.Runs[0], want)
	}
	var lines []byte
	for _, rec := range got.Runs {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(append(lines, line...), '\n')
	}
	if _, err := telemetry.DecodeSidecar(lines); err != nil {
		t.Fatalf("served runs are not sidecar records: %v", err)
	}
}
