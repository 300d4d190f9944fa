package core

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"smart/internal/obs"
	"smart/internal/resilience"
	"smart/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestSweepWithStoreDigestsIdentically checks the read-through
// contract end to end: a cold sweep populates the store, and a second
// sweep over the same grid is served entirely from it — without
// executing a single run — yet produces a manifest with the identical
// content digest.
func TestSweepWithStoreDigestsIdentically(t *testing.T) {
	dir := t.TempDir()
	loads := []float64{0.1, 0.2, 0.3}

	var cold bytes.Buffer
	st := openStore(t, dir)
	if _, err := SweepWith(smallCfg(), loads, 2, Options{
		Store:    st,
		Manifest: obs.NewManifestWriter(&cold),
	}); err != nil {
		t.Fatal(err)
	}
	if st.Len() != len(loads) {
		t.Fatalf("store holds %d records after a %d-point sweep", st.Len(), len(loads))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen (persistence across processes) and sweep warm.
	var warm, logs bytes.Buffer
	st2 := openStore(t, dir)
	if _, err := SweepWith(smallCfg(), loads, 2, Options{
		Store:    st2,
		Manifest: obs.NewManifestWriter(&warm),
		Logger:   obs.NewLogger(&logs, obs.FormatJSON),
	}); err != nil {
		t.Fatal(err)
	}

	coldRecs, err := obs.DecodeManifest(&cold)
	if err != nil {
		t.Fatal(err)
	}
	warmRecs, err := obs.DecodeManifest(&warm)
	if err != nil {
		t.Fatal(err)
	}
	if dc, dw := obs.Digest(coldRecs), obs.Digest(warmRecs); dc != dw {
		t.Fatalf("warm sweep digest %s != cold sweep digest %s", dw, dc)
	}

	// Every warm run must have been replayed, none executed.
	if n := strings.Count(logs.String(), `"msg":"run replayed from cache"`); n != len(loads) {
		t.Fatalf("%d cache replays logged, want %d:\n%s", n, len(loads), logs.String())
	}
	if strings.Contains(logs.String(), `"msg":"run complete"`) {
		t.Fatalf("warm sweep executed a run:\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), `"source":"store"`) {
		t.Fatalf("replay source not attributed to the store:\n%s", logs.String())
	}
}

// TestStoreHitRestampsPosition checks that cached records are persisted
// position-free and re-stamped with the requesting run's Batch/Index —
// the property that makes a read-through grid's manifest digest equal
// an uncached one's even though Batch and Index are digested fields.
func TestStoreHitRestampsPosition(t *testing.T) {
	st := openStore(t, t.TempDir())
	cfg := smallCfg()

	if _, err := RunWith(cfg, Options{Store: st, Batch: "alpha", Index: 7}); err != nil {
		t.Fatal(err)
	}
	rec, _, ok, err := st.Get(cfg.Fingerprint())
	if err != nil || !ok {
		t.Fatalf("store miss after write-back: ok=%v err=%v", ok, err)
	}
	if rec.Batch != "" || rec.Index != 0 {
		t.Fatalf("stored record keeps position batch=%q index=%d; want canonical (position-free)", rec.Batch, rec.Index)
	}

	var manifest bytes.Buffer
	if _, err := RunWith(cfg, Options{
		Store:    st,
		Batch:    "beta",
		Index:    2,
		Manifest: obs.NewManifestWriter(&manifest),
	}); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.DecodeManifest(&manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Batch != "beta" || recs[0].Index != 2 {
		t.Fatalf("replayed manifest record not re-stamped with the caller's position: %+v", recs)
	}
}

// TestCheckpointHitBackfillsStore checks the two caches compose: a run
// already journaled by a checkpoint is replayed (not executed) and its
// record still lands in the store.
func TestCheckpointHitBackfillsStore(t *testing.T) {
	dir := t.TempDir()
	cfg := smallCfg()

	cp, err := resilience.Open(filepath.Join(dir, "ckpt"), true)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if _, err := RunWith(cfg, Options{Checkpoint: cp}); err != nil {
		t.Fatal(err)
	}

	st := openStore(t, filepath.Join(dir, "store"))
	var logs bytes.Buffer
	if _, err := RunWith(cfg, Options{
		Checkpoint: cp,
		Store:      st,
		Logger:     obs.NewLogger(&logs, obs.FormatJSON),
	}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logs.String(), `"source":"checkpoint"`) {
		t.Fatalf("second run was not a checkpoint replay:\n%s", logs.String())
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d records, want 1 (back-filled from the checkpoint)", st.Len())
	}
	rec, _, ok, err := st.Get(cfg.Fingerprint())
	if err != nil || !ok {
		t.Fatalf("back-filled record missing: ok=%v err=%v", ok, err)
	}
	if rec.Batch != "" || rec.Index != 0 {
		t.Fatalf("back-filled record not canonicalized: batch=%q index=%d", rec.Batch, rec.Index)
	}
}
