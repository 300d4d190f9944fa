package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smart/internal/obs"
	"smart/internal/resilience"
)

func TestRunAllIsolatesPanics(t *testing.T) {
	results, errs := runAll(nil, indices(3), 2, func(i int) (Result, error) {
		if i == 1 {
			panic(fmt.Sprintf("config %d is pathological", i))
		}
		return Result{Sample: Sample1()}, nil
	})
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy runs failed: %v, %v", errs[0], errs[2])
	}
	if results[0].Sample != Sample1() || results[2].Sample != Sample1() {
		t.Fatal("healthy runs lost their results")
	}
	var pe *resilience.PanicError
	if !errors.As(errs[1], &pe) {
		t.Fatalf("panicking run produced %v, want *resilience.PanicError", errs[1])
	}
	if pe.Value != "config 1 is pathological" || len(pe.Stack) == 0 {
		t.Fatalf("panic capture incomplete: %+v", pe)
	}
}

func TestBatchCollectsEveryFailure(t *testing.T) {
	bad := Config{Network: NetworkTree, Algorithm: AlgDuato} // duato is undefined on the tree
	badCube := Config{Network: NetworkCube, Algorithm: AlgAdaptive}
	b := Batch{Name: "lossy", Configs: []Config{bad, smallCfg(), badCube}}
	var manifest bytes.Buffer
	res, err := b.RunWith(2, Options{Manifest: obs.NewManifestWriter(&manifest)})
	if err == nil {
		t.Fatal("batch with two invalid configs reported success")
	}
	// Both failures must appear in the joined error, not just the first.
	for _, want := range []string{"config 0", "config 2", bad.Fingerprint(), badCube.Fingerprint()} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error missing %q:\n%v", want, err)
		}
	}
	// The healthy config still ran to completion.
	if len(res) != 3 || res[1].Sample.Accepted <= 0 {
		t.Fatalf("healthy config did not survive its neighbors: %+v", res)
	}
	recs, derr := obs.DecodeManifest(&manifest)
	if derr != nil {
		t.Fatal(derr)
	}
	completed, failed := 0, 0
	for _, rec := range recs {
		if rec.Failure != "" {
			failed++
			if rec.Schema != obs.RunSchema {
				t.Fatalf("failure record carries schema %q", rec.Schema)
			}
		} else {
			completed++
		}
	}
	if completed != 1 || failed != 2 {
		t.Fatalf("manifest holds %d completed and %d failed records, want 1 and 2", completed, failed)
	}
}

func TestSweepSkipsRunsAfterCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var manifest bytes.Buffer
	_, err := SweepWith(smallCfg(), []float64{0.1, 0.2}, 2, Options{
		Context:  ctx,
		Manifest: obs.NewManifestWriter(&manifest),
	})
	if err == nil || !strings.Contains(err.Error(), "not started") || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep = %v, want not-started context errors", err)
	}
	// Interrupted runs are not failures: the manifest stays clean so a
	// resumed invocation's records are the only ones.
	recs, derr := obs.DecodeManifest(&manifest)
	if derr != nil {
		t.Fatal(derr)
	}
	if len(recs) != 0 {
		t.Fatalf("cancelled runs wrote %d manifest records", len(recs))
	}
}

func TestRunWithReplaysCheckpointedRun(t *testing.T) {
	ckpt, err := resilience.Open(filepath.Join(t.TempDir(), "ckpt"), false)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	res1, err := RunWith(smallCfg(), Options{
		Checkpoint: ckpt,
		Manifest:   obs.NewManifestWriter(&first),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Len() != 1 {
		t.Fatalf("checkpoint journaled %d runs", ckpt.Len())
	}
	// Second invocation with the same checkpoint at the same position
	// must replay, not re-run, and emit the identical record (same wall
	// time).
	var second bytes.Buffer
	res2, err := RunWith(smallCfg(), Options{
		Checkpoint: ckpt,
		Manifest:   obs.NewManifestWriter(&second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Sample != res2.Sample || res1.AcceptedBitsNS != res2.AcceptedBitsNS || res1.LatencyNS != res2.LatencyNS {
		t.Fatalf("replayed result diverges:\nran      %+v\nreplayed %+v", res1, res2)
	}
	if first.String() != second.String() {
		t.Fatalf("replayed manifest record differs:\nran      %s\nreplayed %s", first.String(), second.String())
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointHitRestampsPosition checks that a checkpoint replays a
// config under the position of the grid slot asking for it, not the
// slot that first ran it: a grid that repeats a config (experiments
// -ablations does) must manifest each repeat under its own batch.
func TestCheckpointHitRestampsPosition(t *testing.T) {
	ckpt, err := resilience.Open(filepath.Join(t.TempDir(), "ckpt"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	if _, err := RunWith(smallCfg(), Options{Checkpoint: ckpt, Batch: "alpha", Index: 0}); err != nil {
		t.Fatal(err)
	}
	var manifest bytes.Buffer
	if _, err := RunWith(smallCfg(), Options{
		Checkpoint: ckpt,
		Batch:      "beta",
		Index:      3,
		Manifest:   obs.NewManifestWriter(&manifest),
	}); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.DecodeManifest(&manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Batch != "beta" || recs[0].Index != 3 {
		t.Fatalf("checkpoint replay kept the first run's position: %+v", recs)
	}
}

// tearActiveSegment simulates a kill mid-append on the checkpoint in
// dir: half a line, no newline, at the end of its active segment.
func tearActiveSegment(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("checkpoint %s has no segments (err %v)", dir, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(`{"schema":"smart/store/v1","torn`); err != nil {
		t.Fatal(err)
	}
}

func TestInterruptedSweepResumesToIdenticalManifest(t *testing.T) {
	loads := []float64{0.1, 0.2, 0.3, 0.4}
	base := smallCfg()
	opts := func(extra Options) Options {
		extra.Batch = "resume-test"
		return extra
	}

	// Reference: the uninterrupted sweep.
	var refManifest bytes.Buffer
	refResults, err := SweepWith(base, loads, 2, opts(Options{Manifest: obs.NewManifestWriter(&refManifest)}))
	if err != nil {
		t.Fatal(err)
	}
	refRecs, err := obs.DecodeManifest(bytes.NewReader(refManifest.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	refDigest := obs.Digest(refRecs)

	// Interrupted: only the first half of the grid reaches the journal,
	// and the kill tears the final line mid-write.
	path := filepath.Join(t.TempDir(), "ckpt")
	ckpt, err := resilience.Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepWith(base, loads[:2], 2, opts(Options{Checkpoint: ckpt})); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	tearActiveSegment(t, path)

	// Resumed: the full grid against the interrupted journal.
	resumed, err := resilience.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Len() != 2 {
		t.Fatalf("resumed checkpoint sees %d completed runs, want 2", resumed.Len())
	}
	var resManifest bytes.Buffer
	resResults, err := SweepWith(base, loads, 2, opts(Options{
		Checkpoint: resumed,
		Manifest:   obs.NewManifestWriter(&resManifest),
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}

	for i := range refResults {
		if refResults[i].Sample != resResults[i].Sample {
			t.Fatalf("load %g: resumed sample diverges from reference", loads[i])
		}
	}
	resRecs, err := obs.DecodeManifest(bytes.NewReader(resManifest.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d := obs.Digest(resRecs); d != refDigest {
		t.Fatalf("resumed manifest digest %s != reference %s", d, refDigest)
	}
}

func TestResultFromRecordRejectsMismatches(t *testing.T) {
	var manifest bytes.Buffer
	if _, err := RunWith(smallCfg(), Options{Manifest: obs.NewManifestWriter(&manifest)}); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.DecodeManifest(&manifest)
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[0]

	bad := rec
	bad.Failure = "panic: boom"
	if _, err := ResultFromRecord(bad); err == nil {
		t.Fatal("failure record rebuilt into a Result")
	}
	bad = rec
	bad.Fingerprint = "0000000000000000"
	if _, err := ResultFromRecord(bad); err == nil {
		t.Fatal("fingerprint mismatch went unnoticed")
	}
	bad = rec
	bad.Config = []byte(`{`)
	if _, err := ResultFromRecord(bad); err == nil {
		t.Fatal("unparsable embedded config went unnoticed")
	}
}
