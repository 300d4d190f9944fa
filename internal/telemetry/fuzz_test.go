package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"smart/internal/order"
)

// FuzzDecodeSidecar feeds arbitrary files to DecodeSidecar, the one
// decoder every sidecar reader goes through (cmd/manifest, bench's
// traced pass). It must never panic, and the records it accepts must
// re-marshal, one per line as Sidecar.Write journals them, to a file it
// accepts again with the same DigestRecords. A file that ends in a
// newline (so holds no torn tail) must also resume exactly when it
// decodes: OpenSidecar refuses what DecodeSidecar refuses and otherwise
// holds one run per record. The seeds are a valid two-record sidecar
// and one file per refusal DecodeSidecar makes.
func FuzzDecodeSidecar(f *testing.F) {
	f.Add([]byte(sidecarLines(f, classedRecord("fp-a", 0), sidecarRecord("fp-b", 1))))
	refusals := sidecarRefusals(f)
	for _, name := range order.Keys(refusals) {
		f.Add([]byte(refusals[name]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeSidecar(data)
		if bytes.HasSuffix(data, []byte{'\n'}) {
			path := filepath.Join(t.TempDir(), "series.jsonl")
			if werr := os.WriteFile(path, data, 0o644); werr != nil {
				t.Fatal(werr)
			}
			sc, rerr := OpenSidecar(path, true)
			switch {
			case err != nil && rerr == nil:
				sc.Close()
				t.Fatalf("resume accepted %q, which DecodeSidecar refuses: %v", data, err)
			case err == nil && rerr != nil:
				t.Fatalf("resume refused %q, which DecodeSidecar accepts: %v", data, rerr)
			case err == nil:
				if sc.Len() != len(recs) {
					t.Fatalf("resume of %q holds %d runs, want %d", data, sc.Len(), len(recs))
				}
				sc.Close()
			}
		}
		if err != nil {
			return
		}
		again, err := DecodeSidecar([]byte(sidecarLines(t, recs...)))
		if err != nil {
			t.Fatalf("re-marshalled records of %q do not decode: %v", data, err)
		}
		if got, want := DigestRecords(again), DigestRecords(recs); got != want {
			t.Fatalf("digest %s became %s after a round trip of %q", want, got, data)
		}
	})
}
