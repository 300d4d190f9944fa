package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smart/internal/metrics"
	"smart/internal/obs"
)

// testRecord fabricates a completed run record. The store keys entries
// by the record's Fingerprint field and never re-derives it from the
// config, so a synthetic fingerprint exercises the same paths.
func testRecord(fp string, seed uint64, load float64) obs.RunRecord {
	return obs.RunRecord{
		Schema:      obs.RunSchema,
		Label:       "tree adaptive-2vc",
		Pattern:     "uniform",
		Seed:        seed,
		Load:        load,
		Fingerprint: fp,
		Config:      json.RawMessage(`{"Network":"tree","VCs":2}`),
		Sample: metrics.Sample{
			Offered:          load,
			Accepted:         load * 0.9,
			AvgLatency:       20 + 100*load,
			PacketsDelivered: int64(1000 * load),
		},
		Cycles: 22000,
		WallMS: 12.5,
	}
}

func mustPut(t *testing.T, s *Store, rec obs.RunRecord) string {
	t.Helper()
	digest, err := s.Put(rec)
	if err != nil {
		t.Fatalf("Put(%s): %v", rec.Fingerprint, err)
	}
	return digest
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := testRecord("fp-1", 1, 0.5)
	rec.Batch, rec.Index = "some-batch", 7 // position must not be persisted
	digest := mustPut(t, s, rec)
	got, gotDigest, ok, err := s.Get("fp-1")
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if gotDigest != digest {
		t.Errorf("Get digest %s != Put digest %s", gotDigest, digest)
	}
	if got.Batch != "" || got.Index != 0 {
		t.Errorf("stored record kept position batch=%q index=%d; the store is content-addressed", got.Batch, got.Index)
	}
	want := Canonical(rec)
	if got.Sample != want.Sample || got.Cycles != want.Cycles || got.Seed != want.Seed ||
		got.Load != want.Load || string(got.Config) != string(want.Config) {
		t.Errorf("round trip mutated the record:\n got %+v\nwant %+v", got, want)
	}
	// The digest is the content identity: recomputing it over the
	// retrieved record must reproduce the stored value.
	if d := obs.Digest([]obs.RunRecord{got}); d != digest {
		t.Errorf("retrieved record digests %s, stored %s", d, digest)
	}
	if _, _, ok, err := s.Get("absent"); ok || err != nil {
		t.Errorf("Get(absent) = ok=%v err=%v, want miss with no error", ok, err)
	}
}

func TestPutRejectsFailures(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := testRecord("fp-f", 1, 0.5)
	rec.Failure = "stall: no progress"
	if _, err := s.Put(rec); err == nil {
		t.Fatal("failure records must not be cached")
	}
	if _, err := s.Put(obs.RunRecord{}); err == nil {
		t.Fatal("records without a fingerprint must be rejected")
	}
}

func TestCloseIsIdempotentAndFinal(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, testRecord("fp-1", 1, 0.5))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want idempotent nil", err)
	}
	if _, err := s.Put(testRecord("fp-late", 2, 0.5)); err == nil {
		t.Fatal("Put after Close succeeded")
	}
}

func TestSupersedeLastWriteWins(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := testRecord("fp-1", 1, 0.5)
	d1 := mustPut(t, s, first)
	// Identical content re-put is a no-op (same digest, no new line).
	sizeBefore := s.Stats().Bytes
	if d := mustPut(t, s, first); d != d1 {
		t.Errorf("identical re-put changed digest %s -> %s", d1, d)
	}
	if got := s.Stats().Bytes; got != sizeBefore {
		t.Errorf("identical re-put grew the store %d -> %d bytes", sizeBefore, got)
	}
	// WallMS and Shards are run-dependent, digest-zeroed fields:
	// a re-run differing only there is still identical content.
	rerun := first
	rerun.WallMS, rerun.Shards = 99.9, 4
	if d := mustPut(t, s, rerun); d != d1 {
		t.Errorf("wall-time-only change altered digest %s -> %s", d1, d)
	}
	// Different measured content supersedes.
	changed := first
	changed.Sample.Accepted = 0.123
	d2 := mustPut(t, s, changed)
	if d2 == d1 {
		t.Fatal("changed sample must change the digest")
	}
	if got, d, _, _ := s.Get("fp-1"); d != d2 || got.Sample.Accepted != 0.123 {
		t.Errorf("Get after supersede returned digest %s (want %s), accepted %g", d, d2, got.Sample.Accepted)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1 (supersede, not insert)", s.Len())
	}
	if sup := s.Stats().Superseded; sup != 1 {
		t.Errorf("Superseded = %d, want 1", sup)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the index must keep the latest entry.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, d, ok, err := s2.Get("fp-1"); err != nil || !ok || d != d2 || got.Sample.Accepted != 0.123 {
		t.Errorf("reopened Get = (accepted %g, %s, %v, %v), want latest entry %s", got.Sample.Accepted, d, ok, err, d2)
	}
	if sup := s2.Stats().Superseded; sup != 1 {
		t.Errorf("reopened Superseded = %d, want 1", sup)
	}
}

func TestSegmentRollAndCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.segBytes = 2048 // force frequent rolls
	digests := map[string]string{}
	for i := 0; i < 40; i++ {
		fp := fmt.Sprintf("fp-%02d", i)
		digests[fp] = mustPut(t, s, testRecord(fp, uint64(i), 0.25))
	}
	// Supersede half of them so compaction has garbage to drop.
	for i := 0; i < 40; i += 2 {
		fp := fmt.Sprintf("fp-%02d", i)
		rec := testRecord(fp, uint64(i), 0.25)
		rec.Sample.AvgLatency += 1
		digests[fp] = mustPut(t, s, rec)
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("segBytes=%d produced only %d segments; the roll path is untested", s.segBytes, st.Segments)
	}
	before := s.Stats()
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.Stats()
	if after.Segments != 1 {
		t.Errorf("Compact left %d segments, want 1", after.Segments)
	}
	if after.Records != 40 || s.Len() != 40 {
		t.Errorf("Compact changed record count %d -> %d", before.Records, after.Records)
	}
	if after.Bytes >= before.Bytes {
		t.Errorf("Compact did not reclaim space: %d -> %d bytes", before.Bytes, after.Bytes)
	}
	for fp, want := range digests {
		if _, d, ok, err := s.Get(fp); err != nil || !ok || d != want {
			t.Fatalf("after Compact Get(%s) = (%s, %v, %v), want %s", fp, d, ok, err, want)
		}
	}
	// The compacted store appends and reopens like any other.
	mustPut(t, s, testRecord("fp-new", 99, 0.75))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after Compact: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 41 {
		t.Errorf("reopened Len = %d, want 41", s2.Len())
	}
	if err := s2.VerifyAll(); err != nil {
		t.Errorf("VerifyAll after Compact: %v", err)
	}
}

// TestTornTailTruncatedOnReopen is the kill-mid-append contract: a
// process killed partway through an appended line loses that line and
// nothing else, and the next Open repairs the file for further appends.
func TestTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustPut(t, s, testRecord(fmt.Sprintf("fp-%d", i), uint64(i), 0.5))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the kill: a partial sixth line with no newline.
	torn := append(append([]byte{}, whole...), []byte(`{"schema":"smart/store/v1","fingerprint":"fp-5","dig`)...)
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if s2.Len() != 5 {
		t.Errorf("Len after torn-tail reopen = %d, want 5", s2.Len())
	}
	// Every surviving record's digest re-verifies.
	if err := s2.VerifyAll(); err != nil {
		t.Errorf("VerifyAll after torn-tail reopen: %v", err)
	}
	// The tail was physically truncated, and the next append lands on a
	// clean line boundary.
	if fi, _ := os.Stat(seg); fi.Size() != int64(len(whole)) {
		t.Errorf("segment size %d after reopen, want %d (torn tail truncated)", fi.Size(), len(whole))
	}
	mustPut(t, s2, testRecord("fp-5", 5, 0.5))
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 6 {
		t.Errorf("Len after repair+append = %d, want 6", s3.Len())
	}
	if err := s3.VerifyAll(); err != nil {
		t.Errorf("VerifyAll after repair+append: %v", err)
	}
}

// TestKillAtEveryByte reopens a store truncated at every possible byte
// offset of its segment file: whatever the kill point, Open must
// succeed, keep exactly the records whose lines survived whole, and
// digest-verify all of them.
func TestKillAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustPut(t, s, testRecord(fmt.Sprintf("fp-%d", i), uint64(i), 0.5))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// wantAt(n) = how many complete lines survive an n-byte prefix.
	wantAt := func(n int) int {
		return strings.Count(string(whole[:n]), "\n")
	}
	for cut := 0; cut <= len(whole); cut++ {
		if err := os.WriteFile(seg, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at byte %d: Open: %v", cut, err)
		}
		if got, want := s2.Len(), wantAt(cut); got != want {
			t.Fatalf("cut at byte %d: Len = %d, want %d", cut, got, want)
		}
		if err := s2.VerifyAll(); err != nil {
			t.Fatalf("cut at byte %d: VerifyAll: %v", cut, err)
		}
		s2.Close()
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	writeStore := func(t *testing.T) (string, string) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		mustPut(t, s, testRecord("fp-0", 0, 0.5))
		mustPut(t, s, testRecord("fp-1", 1, 0.5))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, filepath.Join(dir, segmentName(1))
	}

	t.Run("bit flip in a record", func(t *testing.T) {
		dir, seg := writeStore(t)
		data, _ := os.ReadFile(seg)
		// Corrupt a digit inside the first record's sample without
		// breaking the JSON framing.
		tampered := strings.Replace(string(data), `"accepted":0.45`, `"accepted":0.46`, 1)
		if tampered == string(data) {
			t.Fatal("tamper target not found; fixture drifted")
		}
		if err := os.WriteFile(seg, []byte(tampered), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "digest verification") {
			t.Fatalf("tampered store opened: err = %v", err)
		}
	})

	t.Run("mid-file garbage line", func(t *testing.T) {
		dir, seg := writeStore(t)
		data, _ := os.ReadFile(seg)
		lines := strings.SplitAfter(string(data), "\n")
		bad := lines[0] + "not a store entry\n" + strings.Join(lines[1:], "")
		if err := os.WriteFile(seg, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Fatal("mid-file garbage must fail Open (only a torn tail is tolerated)")
		}
	})

	t.Run("unknown schema", func(t *testing.T) {
		dir, seg := writeStore(t)
		data, _ := os.ReadFile(seg)
		bad := strings.Replace(string(data), Schema, "smart/store/v999", 1)
		if err := os.WriteFile(seg, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "schema") {
			t.Fatalf("unknown schema opened: err = %v", err)
		}
	})
}

func TestGetVerifiesOnRead(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustPut(t, s, testRecord("fp-0", 0, 0.5))
	// Tamper with the file behind the open store's back: the in-memory
	// index still points at the entry, but the read-side digest check
	// must catch the changed bytes.
	seg := filepath.Join(dir, segmentName(1))
	data, _ := os.ReadFile(seg)
	tampered := strings.Replace(string(data), `"accepted":0.45`, `"accepted":0.46`, 1)
	if tampered == string(data) {
		t.Fatal("tamper target not found; fixture drifted")
	}
	if err := os.WriteFile(seg, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Get("fp-0"); err == nil || !strings.Contains(err.Error(), "digest verification") {
		t.Fatalf("tampered read served: err = %v", err)
	}
}

func TestFingerprintsSorted(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, fp := range []string{"zz", "aa", "mm"} {
		mustPut(t, s, testRecord(fp, 1, 0.5))
	}
	got := s.Fingerprints()
	if len(got) != 3 || got[0] != "aa" || got[1] != "mm" || got[2] != "zz" {
		t.Errorf("Fingerprints() = %v, want sorted [aa mm zz]", got)
	}
}
