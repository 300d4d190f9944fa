package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"smart/internal/obs"
)

// FuzzDecodeEntry feeds arbitrary segment lines to the strict decoder.
// It must never panic, and any line it accepts must carry a record
// whose recomputed digest matches the stored one, keyed by the record's
// own fingerprint — and must survive a re-encode unchanged in content.
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
	})
}
