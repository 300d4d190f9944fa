package resilience

import (
	"encoding/json"
	"errors"
	"fmt"
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

func testRecord(fp string, index int) obs.RunRecord {
	return obs.RunRecord{
		Schema:      obs.RunSchema,
		Batch:       "checkpoint-test",
		Index:       index,
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

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	c, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Record(testRecord(fmt.Sprintf("fp-%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	// Failure records must not be journaled: resume re-runs them.
	fail := testRecord("fp-bad", 9)
	fail.Failure = "panic: boom"
	if err := c.Record(fail); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d after 3 successes and 1 failure, want 3", c.Len())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close = %v, want idempotent nil", err)
	}
	if err := c.Record(testRecord("fp-late", 4)); err == nil {
		t.Fatal("Record after Close succeeded")
	}

	r, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 3 {
		t.Fatalf("resumed Len = %d, want 3", r.Len())
	}
	rec, ok := r.Done("fp-1")
	if !ok || rec.Index != 1 || rec.WallMS != 12.5 {
		t.Fatalf("Done(fp-1) = %+v, %v", rec, ok)
	}
	if _, ok := r.Done("fp-bad"); ok {
		t.Fatal("failure record was journaled")
	}
}

func TestCheckpointOpenTruncatesWithoutResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	c, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Record(testRecord("fp-0", 0)); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c, err = Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 0 {
		t.Fatalf("fresh open kept %d records, want a truncated journal", c.Len())
	}
}

func TestCheckpointResumeDropsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	c, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Record(testRecord("fp-0", 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Record(testRecord("fp-1", 1)); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Simulate a kill mid-write: append half a record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":"smart/run/v2","fing`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(path, true)
	if err != nil {
		t.Fatalf("resume over a torn tail failed: %v", err)
	}
	if r.Len() != 2 {
		t.Fatalf("resumed Len = %d, want the 2 complete records", r.Len())
	}
	// The torn bytes must be gone so the next append starts clean.
	if err := r.Record(testRecord("fp-2", 2)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	f2, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.DecodeManifest(f2)
	f2.Close()
	if err != nil {
		t.Fatalf("journal unreadable after torn-tail resume: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("journal holds %d records, want 3", len(recs))
	}
}

func TestCheckpointResumeRejectsCorruptLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if err := os.WriteFile(path, []byte("this is not a checkpoint\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, true); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("resume over garbage = %v, want a corrupt-line error", err)
	}

	// Unknown schema on a complete line is likewise a hard error.
	if err := os.WriteFile(path, []byte(`{"schema":"smart/run/v99","index":0,"label":"","pattern":"","seed":0,"load":0,"fingerprint":"x","config":null,"sample":{},"cycles":0,"wall_ms":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, true); err == nil || !strings.Contains(err.Error(), "unknown schema") {
		t.Fatalf("resume over unknown schema = %v, want a schema error", err)
	}
}
