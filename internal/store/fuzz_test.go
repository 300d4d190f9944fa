package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"smart/internal/obs"
)

// FuzzDecodeEntry feeds arbitrary journal lines to the strict decoder.
// It must never panic, and any line it accepts must carry a record
// whose recomputed digest matches the stored one, keyed by the record's
// own fingerprint — and must survive a re-encode unchanged in content.
// A journal of that one line must open, and GetJSON must answer exactly
// json.Marshal of Get's record under the same digest, whether or not
// the line holds that JSON; a line that is json.Marshal of its entry,
// as Put writes it, must be indexed with its record's span.
func FuzzDecodeEntry(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Put(testRecord("fp-seed", 3, 0.5)); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	line := bytes.TrimSuffix(data, []byte("\n"))
	f.Add(line)
	f.Add(line[:len(line)/2])                                                         // torn mid-line
	f.Add(line[:len(line)-1])                                                         // torn at the last byte
	f.Add(bytes.Replace(line, []byte(`"seed":3`), []byte(`"seed":4`), 1))             // tampered record
	f.Add(bytes.Replace(line, []byte(`"fp-seed"`), []byte(`"fp-other"`), 1))          // re-keyed entry
	f.Add(bytes.Replace(line, []byte(Schema), []byte("smart/store/v0"), 1))           // unknown schema
	f.Add(bytes.Replace(line, []byte(`{"schema"`), []byte(`{"extra":1,"schema"`), 1)) // unknown field
	f.Add([]byte("{}"))
	f.Add([]byte("null"))
	f.Add(bytes.ReplaceAll(line, []byte(`,"`), []byte(`, "`)))    // spaced
	f.Add(append(bytes.Clone(line), ` trailing junk {"x":1}`...)) // bytes after the entry
	e, err := decodeEntry(line)
	if err != nil {
		f.Fatal(err)
	}
	record, err := json.Marshal(e.Record)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(fmt.Sprintf(`{"record":%s,"digest":%q,"fingerprint":%q,"schema":%q}`, record, e.Digest, e.Fingerprint, Schema))) // reordered
	// A record with invalid UTF-8, encoded as an earlier Put wrote it:
	// its digest is the given record's, which the line's does not match.
	bad := testRecord("fp-bad", 3, 0.5)
	bad.Label = "tree \xff adaptive"
	badLine, err := json.Marshal(Entry{Schema: Schema, Fingerprint: bad.Fingerprint, Digest: obs.Digest([]obs.RunRecord{bad}), Record: bad})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(badLine)

	f.Fuzz(func(t *testing.T, line []byte) {
		e, err := decodeEntry(line)
		if err != nil {
			return
		}
		if e.Schema != Schema || e.Fingerprint == "" || e.Fingerprint != e.Record.Fingerprint {
			t.Fatalf("accepted a malformed entry: %+v", e)
		}
		if d := obs.Digest([]obs.RunRecord{e.Record}); d != e.Digest {
			t.Fatalf("accepted entry digest %s, record recomputes to %s", e.Digest, d)
		}
		again, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("re-encoding an accepted entry: %v", err)
		}
		back, err := decodeEntry(again)
		if err != nil || back.Digest != e.Digest {
			t.Fatalf("re-encoded entry no longer decodes to the same digest: %v", err)
		}

		if bytes.IndexByte(line, '\n') >= 0 {
			return // not one journal line
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("a journal of one accepted line fails to open: %v", err)
		}
		defer s.Close()
		rec, digest, ok, err := s.Get(e.Fingerprint)
		if err != nil || !ok || digest != e.Digest {
			t.Fatalf("Get = (%s, %v, %v), want digest %s", digest, ok, err, e.Digest)
		}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, d, ok, err := s.GetJSON(e.Fingerprint)
		if err != nil || !ok || d != digest || !bytes.Equal(got, want) {
			t.Fatalf("GetJSON = (%s, %s, %v, %v), want %s and digest %s", got, d, ok, err, want, digest)
		}
		if bytes.Equal(line, again) && s.index[e.Fingerprint].record == 0 {
			t.Fatalf("a line as Put writes it was indexed without its record's span: %s", line)
		}
	})
}
