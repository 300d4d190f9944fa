package resilience

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smart/internal/obs"
)

func TestRunPassesThroughResults(t *testing.T) {
	if err := Run(func() error { return nil }); err != nil {
		t.Fatalf("Run(nil-returning fn) = %v", err)
	}
	sentinel := errors.New("boom")
	if err := Run(func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("Run did not pass the error through: %v", err)
	}
}

func TestRunCapturesPanicValueAndStack(t *testing.T) {
	err := Run(func() error { panic("lane table overflow") })
	if err == nil {
		t.Fatal("panic escaped Run as a nil error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %T, want *PanicError", err)
	}
	if pe.Value != "lane table overflow" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "TestRunCapturesPanicValueAndStack") {
		t.Fatalf("stack does not reach the panic site:\n%s", pe.Stack)
	}
	if msg := pe.Error(); !strings.Contains(msg, "panic: lane table overflow") {
		t.Fatalf("unexpected rendering: %s", msg)
	}
}

func testRecord(fp string) obs.RunRecord {
	return obs.RunRecord{
		Schema:      obs.RunSchema,
		Label:       "cube duato",
		Pattern:     "uniform",
		Seed:        1,
		Load:        0.5,
		Fingerprint: fp,
		Config:      json.RawMessage(`{"network":"cube"}`),
		Cycles:      20000,
		WallMS:      12.5,
	}
}

// TestCheckpointOpenTruncatesWithoutResume checks the two ways to open
// a checkpoint directory: resume keeps its journaled runs, a fresh open
// drops them — the segments and nothing else in the directory.
func TestCheckpointOpenTruncatesWithoutResume(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"fp-0", "fp-1"} {
		if _, err := c.Put(testRecord(fp)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	notes := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(notes, []byte("keep me\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	c, err = Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("resumed checkpoint holds %d runs, want 2", c.Len())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c, err = Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 0 {
		t.Fatalf("fresh open kept %d runs, want an empty checkpoint", c.Len())
	}
	if got, err := os.ReadFile(notes); err != nil || string(got) != "keep me\n" {
		t.Fatalf("fresh open touched a non-segment file: %q, %v", got, err)
	}
}
