package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smart/internal/faults"
	"smart/internal/obs"
	"smart/internal/telemetry"
)

// writeJSONL writes values one per line to name in dir, as the writers
// of all three file kinds do, and returns the path.
func writeJSONL(t *testing.T, dir, name string, values ...any) string {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, v := range values {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestInspectDispatchesBySchema checks that the schema on a file's first
// line picks its decoder for each of the three kinds — each decoder
// refuses the other two kinds, so a wrong pick fails — and that -digest
// prints each kind's canonical digest, telemetry.DigestRecords for a
// sidecar.
func TestInspectDispatchesBySchema(t *testing.T) {
	dir := t.TempDir()
	runs := []obs.RunRecord{{Schema: obs.RunSchema, Label: "tree adaptive-2vc", Pattern: "uniform", Fingerprint: "fp-run", Config: json.RawMessage(`{}`)}}
	events := []faults.Event{
		{Cycle: 400, Kind: faults.LinkDown, Router: 2, Port: 1},
		{Cycle: 1800, Kind: faults.LinkUp, Router: 2, Port: 1},
	}
	series := []telemetry.Record{
		{Schema: telemetry.Schema, RunInfo: telemetry.RunInfo{Index: 0, Fingerprint: "fp-a"}, Every: 100, Points: []telemetry.Point{{Cycle: 100, FlitsDelivered: 40}}},
		{Schema: telemetry.Schema, RunInfo: telemetry.RunInfo{Index: 1, Fingerprint: "fp-b"}, Every: 100, Points: []telemetry.Point{{Cycle: 100, FlitsDelivered: 70}}},
	}
	runsPath := writeJSONL(t, dir, "runs.jsonl", runs[0])
	faultsPath := writeJSONL(t, dir, "faults.jsonl", map[string]string{"schema": faults.Schema}, events[0], events[1])
	seriesPath := writeJSONL(t, dir, "series.jsonl", series[0], series[1])
	spec := sha256.Sum256([]byte(faults.Schedule(events).Canonical()))

	for _, c := range []struct {
		path, summary, digest string
	}{
		{runsPath, runsPath + ": 1 records (1 completed, 0 failed), digest " + obs.Digest(runs), obs.Digest(runs)},
		{faultsPath, faultsPath + ": fault schedule (smart/faults/v1), 2 events (1 down, 1 up)", hex.EncodeToString(spec[:])},
		{seriesPath, seriesPath + ": 2 runs, digest " + telemetry.DigestRecords(series), telemetry.DigestRecords(series)},
	} {
		var out bytes.Buffer
		if err := inspect(&out, c.path, view{run: -1}); err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		if first, _, _ := strings.Cut(out.String(), "\n"); first != c.summary {
			t.Errorf("summary of %s begins %q, want %q", c.path, first, c.summary)
		}
		out.Reset()
		if err := inspect(&out, c.path, view{digest: true, run: -1}); err != nil {
			t.Fatalf("%s -digest: %v", c.path, err)
		}
		if want := c.digest + "  " + c.path + "\n"; out.String() != want {
			t.Errorf("-digest printed %q, want %q", out.String(), want)
		}
	}

	// The exit status is the verdict: a sidecar breaking an invariant
	// its writer keeps is an error naming the file.
	dup := writeJSONL(t, dir, "dup.jsonl", series[0], series[0])
	if err := inspect(&bytes.Buffer{}, dup, view{run: -1}); err == nil || !strings.Contains(err.Error(), dup) {
		t.Errorf("sidecar with a duplicate fingerprint: err = %v, want an error naming %s", err, dup)
	}
}
