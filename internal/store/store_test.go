package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
	// Different measured content supersedes, also for a fingerprint
	// whose old entry Get has already read.
	if _, d, _, _ := s.Get("fp-1"); d != d1 {
		t.Fatalf("Get before supersede returned digest %s, want %s", d, d1)
	}
	changed := first
	changed.Sample.Accepted = 0.123
	d2 := mustPut(t, s, changed)
	if d2 == d1 {
		t.Fatal("changed sample must change the digest")
	}
	if got, d, _, _ := s.Get("fp-1"); d != d2 || got.Sample.Accepted != 0.123 {
		t.Errorf("Get after supersede returned digest %s (want %s), accepted %g", d, d2, got.Sample.Accepted)
	}
	if st := s.Stats(); st.Decodes != 0 {
		t.Errorf("Get before and after supersede: %d decodes, want 0 (Put verified both lines)", st.Decodes)
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

// journals returns the segment files in dir, failing the test unless
// there is exactly one: a store directory holds one journal.
func journals(t *testing.T, dir string) string {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("store directory holds segments %v, want one journal", names)
	}
	return names[0]
}

// TestSegmentRollAndCompact checks that a store directory holds one
// journal through Put, Compact and Remove, and that Compact reclaims
// superseded entries without costing a decode.
func TestSegmentRollAndCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	if name := journals(t, dir); name != segmentName(1) {
		t.Errorf("journal %s after Puts, want %s", name, segmentName(1))
	}
	for fp, want := range digests {
		if _, d, ok, err := s.Get(fp); err != nil || !ok || d != want {
			t.Fatalf("before Compact Get(%s) = (%s, %v, %v), want %s", fp, d, ok, err, want)
		}
	}
	before := s.Stats()
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if name := journals(t, dir); name != segmentName(2) {
		t.Errorf("journal %s after Compact, want %s", name, segmentName(2))
	}
	after := s.Stats()
	if after.Records != 40 || s.Len() != 40 {
		t.Errorf("Compact changed record count %d -> %d", before.Records, after.Records)
	}
	if after.Bytes >= before.Bytes || after.Superseded != 0 {
		t.Errorf("Compact did not reclaim space: %d -> %d bytes, %d superseded left", before.Bytes, after.Bytes, after.Superseded)
	}
	for fp, want := range digests {
		if _, d, ok, err := s.Get(fp); err != nil || !ok || d != want {
			t.Fatalf("after Compact Get(%s) = (%s, %v, %v), want %s", fp, d, ok, err, want)
		}
	}
	// Compaction copies each live line byte for byte, with its index
	// entry, so the reads after it match the verified bytes and decode
	// nothing.
	if st := s.Stats(); st.Decodes != 0 {
		t.Errorf("Gets before and after Compact ran %d decodes, want 0", st.Decodes)
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
	journals(t, dir)
	if s2.Len() != 41 {
		t.Errorf("reopened Len = %d, want 41", s2.Len())
	}
	if err := s2.VerifyAll(); err != nil {
		t.Errorf("VerifyAll after Compact: %v", err)
	}
	// Remove and Close work on an open store: Remove deletes the journal
	// under the open handle, and the next Open starts an empty one.
	if err := Remove(dir); err != nil {
		t.Fatalf("Remove with the store open: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close after Remove: %v", err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 0 {
		t.Errorf("Len after Remove = %d, want 0", s3.Len())
	}
	if name := journals(t, dir); name != segmentName(1) {
		t.Errorf("journal %s after Remove+Open, want %s", name, segmentName(1))
	}
}

// TestCompactOverStaleTemp is a compaction killed before its rename: it
// leaves the next journal's temporary file behind, and a later Compact
// must overwrite it rather than fail.
func TestCompactOverStaleTemp(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := mustPut(t, s, testRecord("fp-0", 0, 0.5))
	stale := filepath.Join(dir, segmentName(2)+".tmp")
	if err := os.WriteFile(stale, []byte(`{"schema":"smart/store/v1","fing`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact over a stale temporary file: %v", err)
	}
	if name := journals(t, dir); name != segmentName(2) {
		t.Errorf("journal %s after Compact, want %s", name, segmentName(2))
	}
	if _, err := os.Stat(stale); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("temporary file left behind (Stat: %v)", err)
	}
	if _, d, ok, err := s.Get("fp-0"); err != nil || !ok || d != want {
		t.Errorf("Get after Compact = (%s, %v, %v), want %s", d, ok, err, want)
	}
}

// journalLines returns the journal lines, newline included, that Put
// writes for recs.
func journalLines(t *testing.T, recs ...obs.RunRecord) []string {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		mustPut(t, s, rec)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	return lines[:len(lines)-1]
}

// TestOpenFoldsSegments opens a store in an earlier version's layout,
// three segments whose first ends in a torn line: Open folds them into
// one journal holding every record, the last write per fingerprint
// winning across segments.
func TestOpenFoldsSegments(t *testing.T) {
	superseding := testRecord("fp-0", 0, 0.5)
	superseding.Sample.Accepted = 0.123
	lines := journalLines(t, testRecord("fp-0", 0, 0.5), testRecord("fp-1", 1, 0.5),
		testRecord("fp-2", 2, 0.5), testRecord("fp-3", 3, 0.5))
	lines = append(lines, journalLines(t, superseding)...)
	dir := t.TempDir()
	for i, seg := range []string{
		lines[0] + lines[1] + lines[2][:len(lines[2])/2], // killed mid-append
		lines[2] + lines[4],
		lines[3],
	} {
		if err := os.WriteFile(filepath.Join(dir, segmentName(i+1)), []byte(seg), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]string{}
	for _, rec := range []obs.RunRecord{superseding, testRecord("fp-1", 1, 0.5), testRecord("fp-2", 2, 0.5), testRecord("fp-3", 3, 0.5)} {
		want[rec.Fingerprint] = obs.Digest([]obs.RunRecord{Canonical(rec)})
	}
	for reopen := 0; reopen < 2; reopen++ {
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open %d: %v", reopen, err)
		}
		if name := journals(t, dir); name != segmentName(4) {
			t.Errorf("Open %d: journal %s, want the fold %s", reopen, name, segmentName(4))
		}
		if s.Len() != len(want) {
			t.Errorf("Open %d: Len = %d, want %d", reopen, s.Len(), len(want))
		}
		for fp, d := range want {
			if _, got, ok, err := s.Get(fp); err != nil || !ok || got != d {
				t.Errorf("Open %d: Get(%s) = (%s, %v, %v), want %s", reopen, fp, got, ok, err, d)
			}
		}
		if sup := s.Stats().Superseded; sup != 1 {
			t.Errorf("Open %d: Superseded = %d, want 1 (fp-0's first line)", reopen, sup)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenAfterKilledCompaction is a compaction killed between its
// rename and its delete: the published journal sits beside the old one,
// and Open folds the two to the same records.
func TestOpenAfterKilledCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 6; i++ {
		rec := testRecord(fmt.Sprintf("fp-%d", i), uint64(i), 0.5)
		mustPut(t, s, rec)
		rec.Sample.Accepted = 0.1 * float64(i)
		want[rec.Fingerprint] = mustPut(t, s, rec)
	}
	old, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), old, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open beside a published compaction: %v", err)
	}
	defer s2.Close()
	journals(t, dir)
	if s2.Len() != len(want) {
		t.Errorf("Len = %d, want %d", s2.Len(), len(want))
	}
	for fp, d := range want {
		if _, got, ok, err := s2.Get(fp); err != nil || !ok || got != d {
			t.Errorf("Get(%s) = (%s, %v, %v), want %s", fp, got, ok, err, d)
		}
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

	t.Run("bytes after the entry", func(t *testing.T) {
		dir := t.TempDir()
		line := strings.TrimSuffix(journalLines(t, testRecord("fp-0", 0, 0.5))[0], "\n")
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), []byte(line+` trailing junk {"x":1}`+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "line 1:") {
			t.Fatalf("a line with bytes after its entry opened: err = %v", err)
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
	if _, _, ok, err := s.Get("fp-0"); !ok || err != nil {
		t.Fatalf("Get before tampering: ok=%v err=%v", ok, err)
	}
	// Tamper with the file behind the open store's back, keeping the
	// line's length: the in-memory index still points at the entry, but
	// the changed bytes miss its hash and the read-side digest check must
	// catch them, on both reads.
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
	if _, _, _, err := s.GetJSON("fp-0"); err == nil || !strings.Contains(err.Error(), "digest verification") {
		t.Fatalf("tampered GetJSON served: err = %v", err)
	}
	if st := s.Stats(); st.Decodes != 2 {
		t.Errorf("%d decodes, want 2 (the two tampered reads)", st.Decodes)
	}
}

// TestReadsDecodeNothing checks that a line Put wrote is read without a
// decode, however many lines the store holds and however often each is
// read: Put verified the line when it indexed it, and every read
// matches the bytes against the index.
func TestReadsDecodeNothing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 600
	fp := func(i int) string { return fmt.Sprintf("fp-%04d", i) }
	for i := 0; i < n; i++ {
		mustPut(t, s, testRecord(fp(i), uint64(i), 0.5))
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			if _, _, ok, err := s.GetJSON(fp(i)); !ok || err != nil {
				t.Fatalf("pass %d: GetJSON(%s): ok=%v err=%v", pass, fp(i), ok, err)
			}
		}
	}
	for i := 0; i < n; i++ {
		if _, _, ok, err := s.Get(fp(i)); !ok || err != nil {
			t.Fatalf("Get(%s): ok=%v err=%v", fp(i), ok, err)
		}
	}
	if st := s.Stats(); st.Decodes != 0 {
		t.Errorf("%d records read twice by GetJSON and once by Get: %d decodes, want 0", n, st.Decodes)
	}
}

// TestReopenedReadsDecodeNothing checks that Open verifies and indexes
// each line as Put does: the first reads after a reopen decode nothing
// and answer the bytes and digests Put's store answered.
func TestReopenedReadsDecodeNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spaced := testRecord("fp-spaced", 1, 0.5)
	spaced.Config = json.RawMessage("{\"Network\": \"tree\",\n \"VCs\": 2}")
	want := map[string]string{}
	wantJSON := map[string][]byte{}
	for _, rec := range []obs.RunRecord{testRecord("fp-plain", 0, 0.5), spaced} {
		want[rec.Fingerprint] = mustPut(t, s, rec)
		data, _, _, err := s.GetJSON(rec.Fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON[rec.Fingerprint] = data
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for fp, digest := range want {
		rec, d, ok, err := s2.Get(fp)
		if err != nil || !ok || d != digest || obs.Digest([]obs.RunRecord{rec}) != digest {
			t.Fatalf("reopened Get(%s) = (%s, %v, %v), want digest %s", fp, d, ok, err, digest)
		}
		data, d, ok, err := s2.GetJSON(fp)
		if err != nil || !ok || d != digest || !bytes.Equal(data, wantJSON[fp]) {
			t.Fatalf("reopened GetJSON(%s) = (%s, %s, %v, %v), want %s and digest %s", fp, data, d, ok, err, wantJSON[fp], digest)
		}
	}
	if st := s2.Stats(); st.Decodes != 0 {
		t.Errorf("first reads after a reopen ran %d decodes, want 0", st.Decodes)
	}
}

// TestPutRefusesUnreadableRecord checks that Put refuses a record whose
// line would not read back: json.Marshal writes invalid UTF-8 in a
// string as an escaped U+FFFD, so the line's record no longer matches
// the digest Put computed from the record it was given. Put must fail
// without writing, and the store must reopen with the records before.
func TestPutRefusesUnreadableRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := mustPut(t, s, testRecord("fp-good", 1, 0.5))
	size := s.Stats().Bytes
	bad := testRecord("fp-bad", 2, 0.5)
	bad.Label = "tree \xff adaptive"
	if _, err := s.Put(bad); err == nil || !strings.Contains(err.Error(), "digest verification") {
		t.Fatalf("Put of a record with invalid UTF-8: err = %v, want a digest verification error", err)
	}
	if st := s.Stats(); st.Bytes != size || st.Records != 1 {
		t.Errorf("refused Put left %d records in %d bytes, want 1 in %d", st.Records, st.Bytes, size)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after a refused Put: %v", err)
	}
	defer s2.Close()
	if got := s2.Fingerprints(); len(got) != 1 || got[0] != "fp-good" {
		t.Errorf("reopened store holds %v, want [fp-good]", got)
	}
	if _, d, ok, err := s2.Get("fp-good"); err != nil || !ok || d != good {
		t.Errorf("reopened Get(fp-good) = (%s, %v, %v), want %s", d, ok, err, good)
	}
}

// TestGetHandsOutConfigCopies checks that every record Get returns owns
// its Config: neither a later read nor the caller's own writes to it
// change what another Get returns.
// Every Get returns the decoded form, whose Config the segment line
// holds compacted, never the record Put was given.
func TestGetHandsOutConfigCopies(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := testRecord("fp-0", 0, 0.5)
	want := string(rec.Config)
	rec.Config = json.RawMessage(`{"Network": "tree", "VCs": 2}`)
	mustPut(t, s, rec)
	other := testRecord("fp-1", 1, 0.5)
	other.Config = json.RawMessage(`{"Network":"cube","VCs":4}`)
	mustPut(t, s, other)
	for i := 0; i < 3; i++ {
		got, _, ok, err := s.Get("fp-0")
		if !ok || err != nil {
			t.Fatalf("Get %d: ok=%v err=%v", i, ok, err)
		}
		if string(got.Config) != want {
			t.Fatalf("Get %d: Config %s, want %s", i, got.Config, want)
		}
		if _, _, _, err := s.Get("fp-1"); err != nil {
			t.Fatal(err)
		}
		if string(got.Config) != want {
			t.Fatalf("Get %d: reading another entry changed the returned Config to %s", i, got.Config)
		}
		for j := range got.Config {
			got.Config[j] = 'x'
		}
	}
	if st := s.Stats(); st.Decodes != 0 {
		t.Errorf("%d decodes, want 0", st.Decodes)
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

// TestConcurrentReadsAndWrites drives Get from several goroutines while
// another supersedes entries and compacts; CI runs it under the race
// detector. Every read must return
// a record whose digest recomputes to the digest returned with it.
func TestConcurrentReadsAndWrites(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n, readers = 20, 4
	fp := func(i int) string { return fmt.Sprintf("fp-%02d", i%n) }
	for i := 0; i < n; i++ {
		mustPut(t, s, testRecord(fp(i), uint64(i), 0.25))
	}
	errs := make(chan error, readers+1) // one send at most per goroutine
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				rec, d, ok, err := s.Get(fp(g*7 + k))
				if err == nil && !ok {
					err = fmt.Errorf("store lost %s", fp(g*7+k))
				}
				if err == nil && obs.Digest([]obs.RunRecord{rec}) != d {
					err = fmt.Errorf("Get(%s) returned a record that does not digest to %s", fp(g*7+k), d)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 40; k++ {
			rec := testRecord(fp(k), uint64(k%n), 0.25)
			rec.Sample.AvgLatency += float64(k)
			_, err := s.Put(rec)
			if err == nil && k%10 == 9 {
				err = s.Compact()
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGetJSONMatchesMarshal checks that GetJSON answers with exactly the
// bytes json.Marshal makes of Get's record, read after read: for lines
// Put wrote, whose record span the index holds, and for a hand-written
// line that strict decoding accepts but whose record is not its
// canonical JSON, which gets no span and is decoded on every read. The
// bytes are the caller's own, and a superseding Put is read afresh.
func TestGetJSONMatchesMarshal(t *testing.T) {
	dir := t.TempDir()
	hand := testRecord("fp-hand", 9, 0.5)
	data, err := json.Marshal(hand)
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf(`{"record": %s, "digest": %q, "fingerprint": %q, "schema": %q}`+"\n",
		strings.ReplaceAll(string(data), `,"`, `, "`), obs.Digest([]obs.RunRecord{hand}), hand.Fingerprint, Schema)
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spaced := testRecord("fp-spaced", 1, 0.5)
	spaced.Config = json.RawMessage("{\"Network\": \"tree\",\n \"VCs\": 2}")
	sharded := testRecord("fp-sharded", 2, 0.5)
	sharded.Shards = 4
	faulted := testRecord("fp-faulted", 3, 0.5)
	faulted.Faults = "rand-links:2@300-1100"
	for _, rec := range []obs.RunRecord{testRecord("fp-plain", 0, 0.5), spaced, sharded, faulted} {
		mustPut(t, s, rec)
	}
	check := func(fp string, canonical bool) {
		t.Helper()
		rec, digest, _, err := s.Get(fp)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			got, d, ok, err := s.GetJSON(fp)
			if err != nil || !ok || d != digest {
				t.Fatalf("GetJSON(%s) read %d: digest %s ok=%v err=%v, want digest %s", fp, k, d, ok, err, digest)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("GetJSON(%s) read %d:\n got %s\nwant %s", fp, k, got, want)
			}
			for j := range got {
				got[j] = 'x'
			}
		}
		if l := s.index[fp]; (l.record > 0) != canonical {
			t.Errorf("%s: span recorded = %v, want %v", fp, l.record > 0, canonical)
		}
	}
	before := s.Stats()
	for _, fp := range []string{"fp-plain", "fp-spaced", "fp-sharded", "fp-faulted"} {
		check(fp, true)
	}
	check("fp-hand", false)
	if st := s.Stats(); st.Decodes != before.Decodes+4 {
		t.Errorf("five entries read once by Get and three times by GetJSON: decodes %d -> %d, want +4 (the hand-written line's reads)",
			before.Decodes, st.Decodes)
	}
	changed := testRecord("fp-plain", 0, 0.5)
	changed.Sample.Accepted = 0.123
	mustPut(t, s, changed)
	if got, _, _, _ := s.GetJSON("fp-plain"); !bytes.Contains(got, []byte(`"accepted":0.123`)) {
		t.Errorf("GetJSON after supersede: %s", got)
	}
	check("fp-plain", true)
}
