package cli

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"smart/internal/core"
	"smart/internal/obs"
	"smart/internal/resilience"
	"smart/internal/store"
	"smart/internal/telemetry"
)

// newFlags registers the grid set on a fresh flag set and parses args,
// with stderr captured and exit recorded instead of taken.
func newFlags(t *testing.T, args ...string) (*Flags, *bytes.Buffer, *int) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	exitCode := -1
	f.stderr = &stderr
	f.exit = func(code int) { exitCode = code }
	return f, &stderr, &exitCode
}

func TestAddFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	var names []string
	fs.VisitAll(func(fl *flag.Flag) { names = append(names, fl.Name) })
	sort.Strings(names)
	want := "burst checkpoint cpuprofile faults log-format manifest memprofile metrics-addr resume selfcheck shards store timeseries trace v watchdog"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("registered flags\n got %s\nwant %s", got, want)
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Watchdog != resilience.DefaultWatchdogCycles || f.Checkpoint != "" || f.Resume || f.Shards != 1 || f.SelfCheck {
		t.Fatalf("defaults = %+v", f)
	}
	if err := fs.Parse([]string{"-checkpoint", "c.jsonl", "-resume", "-watchdog", "500", "-shards", "0", "-burst", "mmpp:1:2:3"}); err != nil {
		t.Fatal(err)
	}
	if f.Checkpoint != "c.jsonl" || !f.Resume || f.Watchdog != 500 || f.Shards != 0 || f.Burst != "mmpp:1:2:3" {
		t.Fatalf("parsed = %+v", f)
	}
}

func TestApplyFillsOnlyUnsetFields(t *testing.T) {
	f, _, _ := newFlags(t, "-watchdog", "700", "-faults", "rand-links:2@100", "-burst", "mmpp:10:20:2")
	var unset core.Config
	f.Apply(&unset)
	if unset.WatchdogCycles != 700 || unset.Faults != "rand-links:2@100" || unset.Burst != "mmpp:10:20:2" {
		t.Fatalf("Apply on an unset config = %+v", unset)
	}
	own := core.Config{WatchdogCycles: 9, Faults: "router:3@50", Burst: "mmpp:1:1:1"}
	f.Apply(&own)
	if own.WatchdogCycles != 9 || own.Faults != "router:3@50" || own.Burst != "mmpp:1:1:1" {
		t.Fatalf("Apply overrode a config's own settings: %+v", own)
	}
}

func TestResumeRequiresCheckpoint(t *testing.T) {
	f, stderr, exitCode := newFlags(t, "-resume")
	f.Open("sweep", 1)
	if *exitCode != 1 || !strings.Contains(stderr.String(), "sweep: -resume requires -checkpoint") {
		t.Fatalf("Open with -resume and no -checkpoint: exit %d, stderr %q", *exitCode, stderr.String())
	}
}

// smallSweep is a fast grid: a 16-node tree over four loads.
func smallSweep() (core.Config, []float64) {
	cfg := core.Config{Network: core.NetworkTree, Algorithm: core.AlgAdaptive, VCs: 2, K: 4, N: 2, Warmup: 100, Horizon: 600}
	return cfg, []float64{0.2, 0.4, 0.6, 0.8}
}

// TestOpenSweepFinish drives the full lifecycle with every sink on and
// checks that each journal holds every run once finish returns.
func TestOpenSweepFinish(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	f, stderr, exitCode := newFlags(t,
		"-checkpoint", path("c.jsonl"), "-store", path("store"), "-timeseries", path("ts.jsonl"),
		"-manifest", path("m.jsonl"), "-metrics-addr", "127.0.0.1:0", "-cpuprofile", path("cpu.prof"), "-v")
	cfg, loads := smallSweep()
	opts, finish := f.Open("sweep", len(loads))
	f.Apply(&cfg)
	_, err := core.SweepWith(cfg, loads, 2, opts)
	finish(err)
	if *exitCode != -1 {
		t.Fatalf("finish exited %d on success; stderr:\n%s", *exitCode, stderr.String())
	}
	for _, want := range []string{"sweep: serving telemetry on http://", "sweep: store ", "per-stage engine timing"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}

	n := len(loads)
	ckpt, err := resilience.Open(path("c.jsonl"), true)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Len() != n {
		t.Errorf("checkpoint holds %d runs, want %d", ckpt.Len(), n)
	}
	ckpt.Close()
	st, err := store.Open(path("store"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != n {
		t.Errorf("store holds %d runs, want %d", st.Len(), n)
	}
	st.Close()
	data, err := os.ReadFile(path("ts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if series, err := telemetry.DecodeSidecar(data); err != nil || len(series) != n {
		t.Errorf("sidecar holds %d series (err %v), want %d", len(series), err, n)
	}
	mf, err := os.Open(path("m.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	recs, err := obs.DecodeManifest(mf)
	if err != nil || len(recs) != n {
		t.Fatalf("manifest holds %d records (err %v), want %d", len(recs), err, n)
	}
	for _, rec := range recs {
		if !strings.Contains(string(rec.Config), `"WatchdogCycles":20000`) {
			t.Errorf("run %s lacks the -watchdog default: %s", rec.Fingerprint, rec.Config)
		}
	}
	if fi, err := os.Stat(path("cpu.prof")); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile not written: %v", err)
	}
}

// TestFinishOnFailure checks the error path: an interrupted grid still
// closes its sinks, reports the error with the resume hint, and exits 1.
func TestFinishOnFailure(t *testing.T) {
	dir := t.TempDir()
	ckptPath, manifestPath := filepath.Join(dir, "c.jsonl"), filepath.Join(dir, "m.jsonl")
	f, stderr, exitCode := newFlags(t, "-checkpoint", ckptPath, "-manifest", manifestPath, "-store", filepath.Join(dir, "store"))
	cfg, loads := smallSweep()
	opts, finish := f.Open("sweep", len(loads))
	f.Apply(&cfg)
	ctx, cancel := context.WithCancel(opts.Context)
	cancel()
	opts.Context = ctx
	_, err := core.SweepWith(cfg, loads, 2, opts)
	if err == nil {
		t.Fatal("a cancelled sweep reported success")
	}
	finish(err)
	if *exitCode != 1 {
		t.Fatalf("finish on failure exited %d, want 1", *exitCode)
	}
	out := stderr.String()
	if !strings.Contains(out, "sweep: ") || !strings.Contains(out, "checkpoint "+ckptPath+" holds 0 completed runs; rerun with -resume to continue") {
		t.Fatalf("stderr lacks the error or resume hint:\n%s", out)
	}
	// Closed sinks reopen cleanly: the checkpoint resumes, the store's
	// active segment was released.
	ckpt, err := resilience.Open(ckptPath, true)
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Close()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
}

func TestOpenFailureExits(t *testing.T) {
	f, stderr, exitCode := newFlags(t, "-manifest", filepath.Join(t.TempDir(), "missing", "m.jsonl"))
	f.Open("batch", 1)
	if *exitCode != 1 || !strings.HasPrefix(stderr.String(), "batch: ") {
		t.Fatalf("Open with an uncreatable manifest: exit %d, stderr %q", *exitCode, stderr.String())
	}
}
